"""Two-group protocol runs on synthetic galleries with known outcomes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphsift
from graphsift.corpus import generate_corpus
from graphsift.errors import DegenerateScores
from graphsift.evaluation import (
    GROUPS,
    WER_RATIOS,
    generate_scores,
    run_protocol,
)
from graphsift.facegraph import build_graph
from graphsift.matcher import Constraint

from conftest import random_graph, random_keypoint


def make_population(seed=7, n_probes=2, subjects=("a1", "a2", "b1", "b2")):
    """Four subjects, the first two in G1; probes are exact copies of
    the first enrolled graph, so every genuine score is exactly 0."""
    rng = np.random.default_rng(seed)
    assignment = dict(zip(subjects, ("G1", "G1", "G2", "G2")))
    gallery, probes = [], []
    for s in subjects:
        base = random_graph(rng, 8, subject=s, image=f"{s}_t0")
        extra = random_graph(rng, 8, subject=s, image=f"{s}_t1")
        gallery += [base, extra]
        probes += [
            build_graph(base.vertices, s, f"{s}_p{k}")
            for k in range(n_probes)
        ]
    return gallery, probes, assignment


class TestGenerateScores:
    def test_claim_structure(self):
        gallery, probes, assignment = make_population()
        records = generate_scores(
            gallery, probes, assignment, Constraint.GIBMC
        )
        # 4 subjects x 2 probes, each claiming both same-group subjects
        assert len(records) == 16
        for r in records:
            assert r.group == assignment[r.true_id]
            assert assignment[r.claimed_id] == r.group
        genuine = [r for r in records if r.genuine]
        assert len(genuine) == 8
        assert all(r.score == 0.0 for r in genuine)
        assert all(r.score > 0.0 for r in records if not r.genuine)

    def test_minimum_over_enrolled_graphs(self):
        # The copy sits in the *first* enrolled graph; the claim score
        # must be the min over both, i.e. exactly 0.
        gallery, probes, assignment = make_population(n_probes=1)
        records = generate_scores(
            gallery, probes, assignment, Constraint.GIBMC
        )
        assert all(r.score == 0.0 for r in records if r.genuine)

    def test_unassigned_subject_rejected(self):
        gallery, probes, assignment = make_population()
        del assignment["a2"]
        with pytest.raises(ValueError):
            generate_scores(gallery, probes, assignment, Constraint.GIBMC)

    def test_unassigned_probe_subject_rejected(self):
        # every enrolled subject has a group; only the probe's lacks one
        gallery, probes, assignment = make_population()
        stranger = build_graph(probes[0].vertices, "c1", "c1_p0")
        with pytest.raises(ValueError, match="no group assignment for subject 'c1'"):
            generate_scores(
                gallery, [*probes, stranger], assignment, Constraint.GIBMC
            )


class TestRunProtocol:
    @pytest.mark.parametrize("constraint", list(Constraint))
    def test_separable_population_is_error_free(self, constraint):
        gallery, probes, assignment = make_population()
        result = run_protocol(gallery, probes, assignment, constraint)
        assert result.constraint is constraint
        for g in GROUPS:
            assert result.eer[g] == 0.0
            assert result.eer_threshold[g] == 0.0  # max genuine score
            assert result.client_eer_mean[g] == 0.0
        assert result.average_eer == 0.0
        assert len(result.wer_rows) == 2 * len(WER_RATIOS)
        for row in result.wer_rows:
            assert row.threshold_source_group in GROUPS
            assert (row.far, row.frr, row.wer) == (0.0, 0.0, 0.0)
        assert sorted(r.r for r in result.wer_rows) == sorted(
            list(WER_RATIOS) * 2
        )

    def test_degenerate_group_is_named(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8, subject="s000", image="s000_t0")
        p = build_graph(g.vertices, "s000", "s000_p0")
        with pytest.raises(DegenerateScores, match=r"^group G1: .*0 impostor"):
            run_protocol([g], [p], {"s000": "G1"}, Constraint.GIBMC)

    def test_transferred_rates_match_direct_counting(self):
        # probes unrelated to the gallery: genuine and impostor claims
        # overlap, so a transferred threshold makes errors
        rng = np.random.default_rng(11)
        subjects = ("a1", "a2", "a3", "b1", "b2", "b3")
        assignment = {s: "G1" if s[0] == "a" else "G2" for s in subjects}
        gallery = [
            random_graph(rng, 8, subject=s, image=f"{s}_t0") for s in subjects
        ]
        probes = [
            random_graph(rng, 8, subject=s, image=f"{s}_p{k}")
            for s in subjects
            for k in range(3)
        ]
        for constraint in Constraint:
            result = run_protocol(gallery, probes, assignment, constraint)
            for row in result.wer_rows:
                src = row.threshold_source_group
                t = result.eer_threshold[src]
                claims = [r for r in result.records if r.group != src]
                genuine = [r.score for r in claims if r.genuine]
                impostor = [r.score for r in claims if not r.genuine]
                assert row.far == sum(s <= t for s in impostor) / len(impostor)
                assert row.frr == sum(s > t for s in genuine) / len(genuine)
            assert any(row.far or row.frr for row in result.wer_rows)

    def test_wer_recomputable_from_rates(self):
        gallery, probes, assignment = make_population()
        result = run_protocol(gallery, probes, assignment, Constraint.RPBMC)
        for row in result.wer_rows:
            assert row.wer == pytest.approx(
                (row.frr + row.r * row.far) / (1.0 + row.r), rel=1e-12
            )

    def test_deterministic(self):
        gallery, probes, assignment = make_population()
        a = run_protocol(gallery, probes, assignment, Constraint.GIBMC)
        b = run_protocol(gallery, probes, assignment, Constraint.GIBMC)
        assert a.records == b.records
        assert a.eer == b.eer
        assert a.eer_threshold == b.eer_threshold
        assert a.wer_rows == b.wer_rows

    def test_artifacts_written(self, tmp_path):
        gallery, probes, assignment = make_population()
        out = tmp_path / "eval"
        result = run_protocol(
            gallery, probes, assignment, Constraint.RPBMC, out_dir=out
        )
        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "claimed_id,true_id,group,score"
        assert len(scores) == 1 + len(result.records)
        for g in GROUPS:
            lines = (out / f"roc_{g}.csv").read_text().splitlines()
            assert lines[0] == "threshold,far,frr"
            for line in lines[1:]:
                t, far, frr = (float(v) for v in line.split(","))
                assert 0.0 <= far <= 1.0 and 0.0 <= frr <= 1.0
        wer_lines = (out / "wer_report.csv").read_text().splitlines()
        assert wer_lines[0] == "constraint,r,direction,far,frr,wer"
        assert len(wer_lines) == 7
        directions = [line.split(",")[2] for line in wer_lines[1:]]
        assert directions.count("G1->G2") == 3
        assert directions.count("G2->G1") == 3
        assert all(line.startswith("rpbmc,") for line in wer_lines[1:])
        report = (out / "report.txt").read_text()
        assert "prior EER G1" in report
        assert "average prior EER" in report
        assert "WER(R=10)" in report

    @pytest.mark.parametrize("bad", ["a,1", "a\n1", "a\r1"])
    def test_id_that_breaks_csv_rows_rejected_before_writing(self, tmp_path, bad):
        gallery, probes, assignment = make_population(
            subjects=("a1", bad, "b1", "b2")
        )
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            run_protocol(
                gallery, probes, assignment, Constraint.RPBMC, out_dir=out
            )
        assert not out.exists()
        # the same population scores normally when nothing is written
        run_protocol(gallery, probes, assignment, Constraint.RPBMC)


BLAS_SCRIPT = """
import sys
import numpy as np
from graphsift.corpus import read_manifest
from graphsift.evaluation import run_protocol
from graphsift.facegraph import build_graph
from graphsift.imageio import histogram_equalize, load_image
from graphsift.matcher import Constraint
from graphsift.sift import extract_features

rows = read_manifest(sys.argv[1])
graphs = {
    r.image_path: build_graph(
        extract_features(histogram_equalize(load_image(r.image_path))),
        r.subject_id, r.image_id,
    )
    for r in rows
}
gallery = [graphs[r.image_path] for r in rows if r.role == "train"]
probes = [graphs[r.image_path] for r in rows if r.role == "test"]
assignment = [(r.subject_id, r.group) for r in rows]
for constraint in Constraint:
    result = run_protocol(gallery, probes, assignment, constraint)
    print(np.array([r.score for r in result.records]).tobytes().hex())
"""


def test_scores_do_not_depend_on_blas_threads(tmp_path):
    # The matching bound holds for any summation order, so a BLAS that
    # splits a product over threads moves no score. The thread count is
    # fixed when numpy loads, hence one fresh interpreter per setting.
    manifest = generate_corpus(tmp_path, seed=42, n_subjects=4, images_per_subject=3)
    src = Path(graphsift.__file__).resolve().parent.parent
    outputs = {}
    for threads in ("1", "2", None):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        outputs[threads] = subprocess.run(
            [sys.executable, "-c", BLAS_SCRIPT, str(manifest)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
    scores = outputs[None].split()
    assert len(scores) == len(Constraint) and all(scores)
    assert outputs["1"] == outputs["2"] == outputs[None]
