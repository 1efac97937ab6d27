"""Acceptance gate: end-to-end checks over the shipped seed-42 corpus.

Every test here corresponds to one release criterion and emits a single
``PASS <label> (<elapsed>s)`` line (visible with ``pytest -s`` and in
captured output on failure), so the gate reads as a checklist. Reference
results from the motivating evaluation (average prior EER 8.52% for the
one-way constraint vs 4.29% for the mutual one on a license-restricted
face database) cannot be regenerated here; what is checked instead is
exact algebra against independent oracles plus the same qualitative
ordering on the synthetic corpus.
"""

import contextlib
import hashlib
import math
import statistics
import time

import numpy as np
import pytest

from graphsift.corpus import read_manifest, render_texture, subject_texture
from graphsift.evaluation import (
    ScoreRecord,
    generate_scores,
    prior_eer,
    roc,
    run_protocol,
    wer,
)
from graphsift.facegraph import build_graph
from graphsift.imageio import GrayImage, histogram_equalize, load_image
from graphsift.matcher import (
    Constraint,
    _band_multipliers,
    gibmc_vertex_score,
    match,
    report_row,
    rpbmc_pairs,
)
from graphsift.sift import extract_features
from graphsift.store import GalleryDb, load, save

from conftest import random_graph


@contextlib.contextmanager
def criterion(label, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label} ({time.perf_counter() - start:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    in_budget = limit is None or elapsed < limit
    print(
        f"{'PASS' if in_budget else 'FAIL'} {label} ({elapsed:.1f}s)",
        flush=True,
    )
    assert in_budget, f"{label}: {elapsed:.1f}s exceeded the {limit:.0f}s budget"


def test_identity_scores_are_exactly_zero(corpus_graphs):
    with criterion("identity self-match is exactly zero", limit=30.0):
        for g in corpus_graphs.values():
            assert match(g, g, Constraint.RPBMC).combined == 0.0
            assert match(g, g, Constraint.GIBMC).vertex_raw == 0.0


# sha256 of the score-report lines of every probe against every gallery
# graph of the session corpus; a change that moves any score by one ulp
# (or any pair count) changes these
SCORE_ROWS_SHA256 = {
    Constraint.GIBMC: "5dfcd1e3873b8bd278bf045ecab9fdcb8d140965c64f122b05c375883c57b2b1",
    Constraint.RPBMC: "74e3b707c7ea6efaf28532fed108fd89f31363260404c312fac92c96f80153c2",
}


def test_score_report_rows_pinned(corpus_graphs, corpus_rows):
    with criterion("score report rows pinned bit for bit"):
        gallery, probes, seen = [], [], set()
        # the first image of each subject is its gallery graph; the
        # subject's other images probe every gallery graph
        for r in corpus_rows:
            g = corpus_graphs[(r.subject_id, r.image_id)]
            (probes if r.subject_id in seen else gallery).append(g)
            seen.add(r.subject_id)
        for constraint, want in SCORE_ROWS_SHA256.items():
            lines = "".join(
                report_row(p.image_id, g.subject_id, match(g, p, constraint)) + "\n"
                for p in probes
                for g in gallery
            )
            assert hashlib.sha256(lines.encode()).hexdigest() == want, constraint


def test_vertex_score_and_pairing_match_brute_force():
    with criterion("vertex score and mutual pairing match oracles", limit=60.0):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            g1 = random_graph(rng, int(rng.integers(5, 31)))
            g2 = random_graph(rng, int(rng.integers(5, 31)))

            mean = gibmc_vertex_score(g1, g2)[1]
            want = sum(
                min(math.dist(a, b) for b in g2.descriptors)
                for a in g1.descriptors
            ) / g1.n_vertices
            assert mean == pytest.approx(want, rel=1e-12)

            got = [tuple(p) for p in rpbmc_pairs(g1, g2).pairs.tolist()]
            assert got == mutual_pairing_oracle(
                g1.descriptors, g2.descriptors, 0.8
            )


def nearest_oracle(rows_a, rows_b, ratio):
    accepted = []
    for i, a in enumerate(rows_a):
        dists = [math.dist(a, b) for b in rows_b]
        j = min(range(len(dists)), key=lambda c: (dists[c], c))
        d2 = min((dists[c] for c in range(len(dists)) if c != j), default=math.inf)
        if dists[j] < ratio * d2:
            accepted.append((i, j))
    return accepted


def mutual_pairing_oracle(rows_a, rows_b, ratio):
    forward = nearest_oracle(rows_a, rows_b, ratio)
    backward = dict(nearest_oracle(rows_b, rows_a, ratio))
    return [(i, j) for i, j in forward if backward.get(j) == i]


def test_mutual_pairing_injective_across_corpus(corpus_graphs):
    with criterion("mutual pairing one-to-one on every corpus pair"):
        graphs = list(corpus_graphs.values())
        violations = 0
        for g1 in graphs:
            for g2 in graphs:
                cs = rpbmc_pairs(g1, g2)
                for col in cs.pairs.T:
                    violations += len(set(col.tolist())) != len(cs)
        assert violations == 0


def test_transformed_copy_outscores_every_impostor():
    with criterion("transformed copy beats every impostor texture", limit=180.0):
        n_textures, size = 20, 128
        base, transformed = [], []
        for t in range(n_textures):
            tex = subject_texture(777, t, size)
            angle = math.radians(15.0 if t % 2 == 0 else -15.0)
            base.append(graph_of(render_texture(tex, size), f"t{t}", "base"))
            transformed.append(graph_of(
                render_texture(tex, size, rotation=angle, scale=1.2,
                               translation=(3.0, -2.0)),
                f"t{t}", "warp",
            ))
        genuine = [
            match(base[t], transformed[t], Constraint.RPBMC).combined
            for t in range(n_textures)
        ]
        satisfied = total = 0
        for t in range(n_textures):
            for u in range(n_textures):
                if t == u:
                    continue
                impostor = match(base[t], base[u], Constraint.RPBMC).combined
                total += 1
                satisfied += genuine[t] < impostor
        assert satisfied >= 0.95 * total, f"{satisfied}/{total} triples held"


def graph_of(img, subject, image):
    return build_graph(
        extract_features(histogram_equalize(img)), subject, image
    )


# Exact pixel permutations under which SIFT (Lowe, IJCV 2004) finds the
# same keypoints, up to sub-pixel refinement near the image border.
INVARIANT_VIEWS = {
    "rot90": np.rot90,
    "rot180": lambda p: np.rot90(p, 2),
    "roll": lambda p: np.roll(p, (3, 5), axis=(0, 1)),
}
# A claim by a permuted copy of an enrolled image scores below this. On
# the session corpus the largest such score was 1.3e-3 (roll, gibmc),
# and genuine claims by the other views have a median of 0.041 (gibmc)
# and 0.014 (rpbmc), so the bound is well under both.
INVARIANT_BOUND = 2.5e-3


def test_exact_rotations_and_shifts_score_like_the_same_image(
    corpus_graphs, corpus_rows
):
    with criterion("rot90, rot180 and roll are invariant; a mirror is not", limit=120.0):
        train = [r for r in corpus_rows if r.role == "train"]
        gallery = [corpus_graphs[(r.subject_id, r.image_id)] for r in train]
        groups = {r.subject_id: r.group for r in corpus_rows}
        probes = {
            "views": [
                corpus_graphs[(r.subject_id, r.image_id)]
                for r in corpus_rows if r.role == "test"
            ]
        }
        for name, view in {**INVARIANT_VIEWS, "mirror": lambda p: p[:, ::-1]}.items():
            probes[name] = [
                graph_of(
                    GrayImage(np.ascontiguousarray(view(load_image(r.image_path).pixels))),
                    r.subject_id, f"{r.image_id}-{name}",
                )
                for r in train
            ]
        for constraint in Constraint:
            # the originals are enrolled, so their edges are gathered
            # from the tables the protocol keeps, against probe edges
            # whose orientations turned with the image
            genuine = {
                name: [
                    claim.score
                    for claim in generate_scores(gallery, graphs, groups, constraint)
                    if claim.genuine
                ]
                for name, graphs in probes.items()
            }
            views_median = statistics.median(genuine["views"])
            assert INVARIANT_BOUND < views_median / 5.0, constraint
            for name in INVARIANT_VIEWS:
                assert max(genuine[name]) < INVARIANT_BOUND, (constraint, name)
            # SIFT is not mirror-invariant: a mirrored copy scores worse
            # than other views of the same face
            assert min(genuine["mirror"]) > INVARIANT_BOUND, constraint
            assert statistics.median(genuine["mirror"]) > views_median, constraint


def test_metric_pipeline_matches_sweep_oracle():
    with criterion("threshold metrics match exhaustive sweeps"):
        rng = np.random.default_rng(4321)

        def score_set(n_gen, n_imp):
            recs = [
                ScoreRecord("a", "a", float(s), "G1")
                for s in rng.normal(0.4, 0.12, n_gen)
            ]
            recs += [
                ScoreRecord("a", "z", float(s), "G1")
                for s in rng.normal(0.6, 0.12, n_imp)
            ]
            return recs

        records = score_set(500, 500)
        genuine = sorted(r.score for r in records if r.genuine)
        impostor = sorted(r.score for r in records if not r.genuine)
        best = None
        for t in sorted(set(genuine) | set(impostor) | {-math.inf, math.inf}):
            far = sum(s <= t for s in impostor) / len(impostor)
            frr = sum(s > t for s in genuine) / len(genuine)
            key = (abs(far - frr), t)
            if best is None or key < best[0]:
                best = (key, t, (far + frr) / 2.0)
        eer, thr = prior_eer(records)
        assert thr == best[1]
        assert eer == pytest.approx(best[2], abs=1e-9)

        for _ in range(100):
            e, r = float(rng.random()), float(rng.uniform(0.01, 100.0))
            assert wer(e, e, r) == pytest.approx(e, rel=1e-12)

        for _ in range(10):
            thresholds, far, frr = roc(
                score_set(int(rng.integers(5, 80)), int(rng.integers(5, 80)))
            )
            assert np.all(np.diff(thresholds) > 0)
            assert np.all(np.diff(far) >= 0)
            assert np.all(np.diff(frr) <= 0)


# sha256 of every artifact run_protocol writes for the session corpus;
# a change to a score, a sweep point, a rate or a line of the report
# changes one of these
PROTOCOL_ARTIFACTS_SHA256 = {
    Constraint.GIBMC: {
        "report.txt": "5fc9fc1ab13a2969dbe6e755ab6643a1f6a44272e9475c9a19114f01d2cd6b1f",
        "roc_G1.csv": "e235cd86aee744dc605cff5d3e712a2074da88aa79f65c0f15947d6f93f76bf7",
        "roc_G2.csv": "9760960910d0cd5c9efd87c26449d207c01a4153c9ab5aaeb43d0009ca4facb3",
        "scores.csv": "2395697ccc8942f3c38f86c0bb1b5cafa23502ba9698a41715555c05d64dac3e",
        "wer_report.csv": "f5563fdbfe11e5bb50d94bdfcad4fcce8db8c72ac76ea88884994cce61831660",
    },
    Constraint.RPBMC: {
        "report.txt": "10823822934f91d0a2efd7d72589ef81060713aa8767a1ce60a51abdfebd20a1",
        "roc_G1.csv": "87c8511357f7d16f174100196a0bf7944464bea23e249f2311b77c8dbf5f2bca",
        "roc_G2.csv": "fe572a9f3e3268aa206b632416611cf5b1b3ba5228ba84791dcde536e512be71",
        "scores.csv": "1a438b348d6c2e669a37f2e18beeaa70a5c41986029cdd9a4a2e5b625f2c70e6",
        "wer_report.csv": "8598d23f2c780c0bc9547ca5cc304e394547e946353997db2b95b5dcfef3871c",
    },
}


def test_mutual_constraint_orders_no_worse_on_corpus(
    corpus_graphs, corpus_rows, tmp_path
):
    with criterion("mutual constraint error <= one-way on corpus", limit=300.0):
        gallery = [
            corpus_graphs[(r.subject_id, r.image_id)]
            for r in corpus_rows if r.role == "train"
        ]
        probes = [
            corpus_graphs[(r.subject_id, r.image_id)]
            for r in corpus_rows if r.role == "test"
        ]
        assignment = [(r.subject_id, r.group) for r in corpus_rows]
        avg = {}
        for c, want in PROTOCOL_ARTIFACTS_SHA256.items():
            out = tmp_path / c.value
            avg[c] = run_protocol(
                gallery, probes, assignment, c, out_dir=out
            ).average_eer
            got = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in out.iterdir()
            }
            assert got == want, c
        assert avg[Constraint.RPBMC] <= avg[Constraint.GIBMC], (
            f"mutual {avg[Constraint.RPBMC]:.4f} vs "
            f"one-way {avg[Constraint.GIBMC]:.4f}"
        )


def test_weight_bands_match_scalar_oracle():
    with criterion("weight banding matches scalar oracle"):
        rng = np.random.default_rng(99)
        values = rng.normal(10.0, 4.0, 10_000)
        mu, sigma = float(values.mean()), float(values.std())
        weighted = values * _band_multipliers(np.abs(values - mu), sigma)
        for v, w in zip(values, weighted):
            z = abs(v - mu)
            if z <= sigma:
                m = 0.075
            elif z <= 2.0 * sigma:
                m = 0.05
            elif z <= 3.0 * sigma:
                m = 0.025
            else:
                m = 0.0
            assert w == v * m

        flat = _band_multipliers(np.abs(np.full(100, 2.5) - 2.5), 0.0)
        assert np.all(flat == 0.075)


def test_descriptor_contract_on_every_corpus_keypoint(corpus_graphs):
    with criterion("descriptors normalized, clamped, 128-d"):
        n = 0
        for g in corpus_graphs.values():
            for desc in g.vertices.descriptors:
                assert desc.shape == (128,)
                assert abs(float(np.linalg.norm(desc)) - 1.0) < 1e-6
                assert float(desc.min()) >= 0.0
                assert float(desc.max()) <= 0.2 + 1e-6
                n += 1
        assert n > 0
        flat = GrayImage(np.full((96, 96), 77, dtype=np.uint8))
        assert len(extract_features(flat)) == 0


def test_store_round_trip_and_determinism(tmp_path):
    with criterion("gallery store round-trips 100 dbs byte-stably"):
        rng = np.random.default_rng(2024)
        for k in range(100):
            entries = tuple(
                random_graph(rng, int(rng.integers(2, 8)),
                             subject=f"s{e % 3}", image=f"i{e}")
                for e in range(int(rng.integers(0, 5)))
            )
            # the draw that once gave each gallery a random digest, kept
            # so that the galleries keep their entries
            rng.integers(0, 2**63)
            db = GalleryDb(entries=entries)
            p1 = tmp_path / f"db{k}a.bin"
            p2 = tmp_path / f"db{k}b.bin"
            save(db, p1)
            save(db, p2)
            assert p1.read_bytes() == p2.read_bytes()
            loaded = load(p1)
            assert loaded.detector_cfg_hash == db.detector_cfg_hash
            assert loaded.entries == db.entries
            for ga, gb in zip(loaded.entries, db.entries):
                assert np.array_equal(ga.descriptors, gb.descriptors)
            save(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()


def test_cli_pipeline_rank_one_accuracy(tmp_path, capsys):
    from graphsift.cli import main

    with criterion("CLI pipeline exits 0 with rank-1 >= 90%"):
        corpus = tmp_path / "corpus"
        db = tmp_path / "gallery.db"
        assert main(["gen-corpus", "--out", str(corpus)]) == 0
        assert main([
            "enroll", str(corpus / "manifest.csv"), "--db", str(db),
        ]) == 0
        capsys.readouterr()

        hits = total = 0
        for row in read_manifest(corpus / "manifest.csv"):
            if row.role != "test":
                continue
            assert main([
                "identify", str(row.image_path), "--db", str(db), "--top", "1",
            ]) == 0
            top = capsys.readouterr().out.strip().splitlines()[0].split()
            total += 1
            hits += top[1] == row.subject_id
        assert total == 30
        assert hits >= 0.9 * total, f"rank-1 {hits}/{total}"

        assert main([
            "evaluate", str(corpus / "manifest.csv"),
            "--out", str(tmp_path / "eval"),
        ]) == 0
        assert (tmp_path / "eval" / "report.txt").exists()
