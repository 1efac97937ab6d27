#!/usr/bin/env python3
"""Benchmark for graphsift: the enroll, verify and identify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 42 --seconds 15 --trace 0

Inputs come from ``graphsift.corpus.generate_corpus`` with ``--seed``;
the library sees only the generated files. Every workload runs in this
one process with one client and no extra threads:

enroll
    A 256-px corpus of 25 subjects x 4 images. One op is one image taken
    from file to graph (load_image, histogram_equalize, extract_features,
    build_graph); each pass over the corpus ends with one store.save.
verify
    The 40 x 4 corpus at 128 px. Its graphs are extracted during set-up.
    Each pass calls run_protocol for gibmc and then for rpbmc with an
    out_dir, 2400 claims each. One op is one claim.
identify
    The 40 train images of the same corpus are enrolled and saved during
    set-up. One op is one query for one of the 120 test images, done as
    ``graphsift identify`` does it: store.load, digest check, probe
    extraction, identify(..., RPBMC) over every entry. Closed loop, one
    client, no think time.

A timed run (``--trace 0``) completes one full pass over its inputs,
which the behaviour fingerprint needs, then continues op by op until
``--seconds`` have passed. A traced run (``--trace 1``) wraps the
library's functions (see spans.py) and measures whole passes only, as
many as fit in ``--seconds`` and at least one, so its per-layer metrics
are per pass.

Every workload reports the same five end-to-end metrics: ``setup_s``
(median over set-up repeats: a fresh interpreter up to an empty gallery
for enroll, extracting the 160 graphs for verify, enrolling and saving
the 40 train images for identify), ``peak_rss_mb``, ``op_cost_mean``
(busy time per op) and ``op_cost_p50``/``op_cost_p90`` (per image, per
query, or for verify per claim of one pass taken over the passes).
The three op costs are in ``ref`` units: an op's wall time over the
time of a fixed reference kernel run right before and right after it
(see reference.py), because the host's speed swings too much between
runs for wall-clock figures to compare. The wall-clock figures are in
the report line under the workload names (``enroll_images_per_s``,
``extract_ms_p50``, ``identify_ms_p90``, ...); perfbench/baseline.json
maps the two.

Stdout ends with two JSON lines. The first is the report: fingerprint,
the metrics under their workload names (``gibmc_claims_per_s``,
``identify_ms_p90``, ...), sample counts, failed checks and the
environment. The last is the result: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) named in BENCHMARK.json. Output checks run
outside the timed spans; an op that raises or scores NaN counts as
failed and the run goes on.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

# Without the library's source next to this directory these imports
# fail, and the run exits non-zero without printing a result.
import graphsift  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from graphsift import (  # noqa: E402
    corpus,
    evaluation,
    facegraph,
    imageio,
    matcher,
    sift,
    store,
)
from graphsift.config import DetectorConfig  # noqa: E402
from graphsift.errors import GraphSiftError  # noqa: E402
from graphsift.matcher import Constraint  # noqa: E402

from reference import Reference  # noqa: E402
from spans import NoTrace, Tracer, layer_metrics, unit  # noqa: E402

WORKLOADS = ("enroll", "verify", "identify")
# Set-up repeats per run; setup_s is their median. Verify's set-up is
# one extraction of 160 images (about 15 s on a 2-core x86_64 host),
# already an average over many ops; repeating it would not fit the
# time budget of a benchmark run.
SETUP_REPEATS = {"enroll": 3, "verify": 1, "identify": 3}
SELF_MATCH_SAMPLES = 3
# A run_protocol call of verify lasts about a second (4800 match calls)
# and the host's speed can change within it: the timed runs sample the
# reference kernel every this many match calls (about 0.1 s).
MATCHES_PER_SEGMENT = 200
MAX_MESSAGES = 10


@dataclass(frozen=True)
class CorpusSize:
    subjects: int
    images_per_subject: int
    size: int


@dataclass(frozen=True)
class Sizes:
    enroll: CorpusSize = CorpusSize(25, 4, 256)
    protocol: CorpusSize = CorpusSize(40, 4, 128)


@dataclass
class Run:
    """Outcome of one benchmark run."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    check_failures: list[str] = field(default_factory=list)
    n_check_failures: int = 0
    fingerprint: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def fail_op(self, what: str, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < MAX_MESSAGES:
            self.errors.append(f"{what}: {reason}")

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.n_check_failures += 1
            if len(self.check_failures) < MAX_MESSAGES:
                self.check_failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.n_check_failures == 0

    def report_line(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.traced),
            "fingerprint": self.fingerprint,
            "report": self.report,
            "samples": self.samples,
            "errors": self.errors,
            "check_failures": self.check_failures,
            "n_check_failures": self.n_check_failures,
            "environment": environment(),
        }

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


class Budget:
    """Decides when measuring stops (see the module docstring)."""

    def __init__(self, seconds: float, traced: bool):
        self.seconds = seconds
        self.traced = traced
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def next_op(self, pass_no: int) -> bool:
        """May another op start within pass ``pass_no``?"""
        return pass_no == 0 or self.traced or self.elapsed() < self.seconds

    def next_pass(self, last_pass_s: float) -> bool:
        if self.traced:
            return self.elapsed() + last_pass_s <= self.seconds
        return self.elapsed() < self.seconds


class OpTimer:
    """Wall time of each op and its cost in ``ref`` units.

    The reference kernel runs before the first op and after every op,
    so each op sits between two samples; the checks that follow an op
    run after its second sample. An op that lasts seconds is cut into
    segments with ``checkpoint``: each segment is costed against the
    samples around it, and the samples' own time is left out of the
    op's wall time.
    """

    def __init__(self) -> None:
        self.ref = Reference()
        self._before: float | None = None
        self._t0 = 0.0
        self._wall = 0.0
        self._cost = 0.0

    def start(self) -> None:
        if self._before is None:
            self._before = self.ref.sample()
        self._wall = self._cost = 0.0
        self._t0 = perf_counter()

    def checkpoint(self) -> None:
        """Close the op's current segment, sample, open the next one."""
        segment = perf_counter() - self._t0
        after = self.ref.sample()
        self._wall += segment
        self._cost += segment / ((self._before + after) / 2.0)
        self._before = after
        self._t0 = perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall seconds, cost) of the op started last."""
        self.checkpoint()
        return self._wall, self._cost

    @contextmanager
    def every(self, module, attr: str, calls: int):
        """Checkpoint before every ``calls``-th call of ``module.attr``."""
        fn = getattr(module, attr)
        n = 0

        def wrapper(*args, **kwargs):
            nonlocal n
            n += 1
            if n % calls == 0:
                self.checkpoint()
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, fn)

    def report(self, run: "Run") -> None:
        run.samples["ref_samples"] = len(self.ref.samples)
        run.report["ref_ms_p50"] = metric(quantile(self.ref.samples, 50) * 1000.0, "ms")


# --- library calls, through the module bindings the tracer wraps ---


def extract_graph(path: Path, subject_id: str, image_id: str):
    """File to face graph."""
    img = imageio.histogram_equalize(imageio.load_image(path))
    return facegraph.build_graph(sift.extract_features(img), subject_id, image_id)


# --- output checks (run outside the timed spans) ---


def check_descriptors(run: Run, g) -> None:
    d = g.descriptors
    norms = np.linalg.norm(d, axis=1)
    run.expect(
        bool(np.all(np.abs(norms - 1.0) <= 1e-5)) and float(d.max()) <= 0.2 + 1e-6,
        f"{g.image_id}: a descriptor is not unit norm or has an entry above 0.2",
    )


def check_self_match(run: Run, graphs: list, seed: int) -> None:
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(graphs), size=min(SELF_MATCH_SAMPLES, len(graphs)), replace=False)
    for i in sorted(picks):
        g = graphs[i]
        score = matcher.match(g, g, Constraint.RPBMC)
        run.expect(score.combined == 0.0, f"{g.image_id}: self match scores {score.combined!r}")


def check_rpbmc_score(run: Run, score, what: str) -> None:
    run.expect(
        math.isinf(score.combined) == (score.n_vertex_pairs < 2),
        f"{what}: rpbmc score {score.combined!r} with {score.n_vertex_pairs} pairs",
    )


def check_store_roundtrip(run: Run, path: Path, graphs: list) -> None:
    db = store.load(path)
    run.expect(
        [(g.subject_id, g.image_id, g.vertices) for g in db.entries]
        == [(g.subject_id, g.image_id, g.vertices) for g in graphs],
        f"{path.name}: store.load does not give back the saved keypoints",
    )


def check_rpbmc_claims(run: Run, result, gallery: list, probes: list, groups: dict) -> None:
    """Every rpbmc claim equals a direct match, and is +inf exactly when
    fewer than 2 mutual pairs were found."""
    enrolled: dict[str, dict[str, list]] = {}
    for g in gallery:
        enrolled.setdefault(groups[g.subject_id], {}).setdefault(g.subject_id, []).append(g)
    expected = []
    for probe in probes:
        by_subject = enrolled[groups[probe.subject_id]]
        for claimed in sorted(by_subject):
            scores = [matcher.match(g, probe, Constraint.RPBMC) for g in by_subject[claimed]]
            for s in scores:
                check_rpbmc_score(run, s, f"{probe.image_id} vs {claimed}")
            expected.append(min(s.combined for s in scores))
    run.expect(
        [r.score for r in result.records] == expected,
        "rpbmc claim scores disagree with a direct match of each claim",
    )


# --- helpers ---


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, inclusive method; 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value if math.isfinite(value) else 0.0, "unit": unit}


def _openblas_threads():
    """OpenBLAS thread count as found in numpy's bundled library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(
                {ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")}
            )
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def make_corpus(work: Path, name: str, seed: int, size: CorpusSize) -> list:
    manifest = corpus.generate_corpus(
        work / name,
        seed=seed,
        n_subjects=size.subjects,
        images_per_subject=size.images_per_subject,
        size=size.size,
    )
    return corpus.read_manifest(manifest)


def finish_setup(run: Run, setup_times: list[float]) -> None:
    run.samples["setup_repeats"] = len(setup_times)
    run.report["setup_s"] = metric(statistics.median(setup_times), "s")


# --- workloads ---


def cold_start() -> float:
    """Fresh interpreter to an open, empty gallery: the enroll set-up."""
    code = (
        "from graphsift import config, store\n"
        "store.GalleryDb(config.DetectorConfig().digest(), ())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return perf_counter() - t0


def enroll(run: Run, work: Path, seconds: float, sizes: Sizes, tracer) -> int:
    rows = make_corpus(work, "enroll", run.seed, sizes.enroll)
    finish_setup(run, [cold_start() for _ in range(SETUP_REPEATS["enroll"])])
    digest = DetectorConfig().digest()
    gallery_path = work / "enroll.gsft"

    op_ms: list[float] = []
    op_cost: list[float] = []
    save_s = save_cost = 0.0
    first_counts: dict[str, int] = {}
    timer = OpTimer()
    tracer.start()
    budget = Budget(seconds, run.traced)
    pass_no = 0
    while True:
        t_pass = perf_counter()
        graphs = []
        done = 0
        for row in rows:
            if not budget.next_op(pass_no):
                break
            run.attempted += 1
            done += 1
            timer.start()
            try:
                with tracer.request():
                    g = extract_graph(row.image_path, row.subject_id, row.image_id)
            except Exception as exc:  # a failed op must not end the run
                timer.stop()
                run.fail_op(row.image_path.name, repr(exc))
                continue
            wall, cost = timer.stop()
            op_ms.append(wall * 1000.0)
            op_cost.append(cost)
            with tracer.paused():
                check_descriptors(run, g)
                key = row.image_path.name
                if pass_no == 0:
                    first_counts[key] = g.n_vertices
                else:
                    run.expect(first_counts.get(key) == g.n_vertices, f"{key}: keypoints differ between passes")
            graphs.append(g)
        if graphs:
            db = store.GalleryDb(detector_cfg_hash=digest, entries=tuple(graphs))
            timer.start()
            try:
                with tracer.request():
                    store.save(db, gallery_path)
            except Exception as exc:
                timer.stop()
                run.expect(False, f"store.save raised {exc!r}")
            else:
                wall, cost = timer.stop()
                save_s += wall
                save_cost += cost
                with tracer.paused():
                    check_store_roundtrip(run, gallery_path, graphs)
                    if pass_no == 0:
                        check_self_match(run, graphs, run.seed)
        if done < len(rows):
            break
        pass_no += 1
        if not budget.next_pass(perf_counter() - t_pass):
            break

    run.fingerprint["keypoints_total"] = sum(first_counts.values())
    busy_s = sum(op_ms) / 1000.0 + save_s
    timer.report(run)
    run.samples.update(images=len(op_ms), full_passes=pass_no)
    run.report.update(
        enroll_images_per_s=metric(len(op_ms) / busy_s if busy_s else 0.0, "images/s"),
        extract_ms_p50=metric(quantile(op_ms, 50), "ms"),
        extract_ms_p90=metric(quantile(op_ms, 90), "ms"),
    )
    run.metrics.update(
        op_cost_mean=(sum(op_cost) + save_cost) / len(op_cost) if op_cost else 0.0,
        op_cost_p50=quantile(op_cost, 50),
        op_cost_p90=quantile(op_cost, 90),
    )
    return pass_no


def _protocol_inputs(run: Run, rows: list):
    t0 = perf_counter()
    graphs = [extract_graph(r.image_path, r.subject_id, r.image_path.stem) for r in rows]
    setup_s = perf_counter() - t0
    for g in graphs:
        check_descriptors(run, g)
    run.fingerprint["keypoints_total"] = sum(g.n_vertices for g in graphs)
    return graphs, setup_s


def verify(run: Run, work: Path, seconds: float, sizes: Sizes, tracer) -> int:
    rows = make_corpus(work, "protocol", run.seed, sizes.protocol)
    setups = []
    for _ in range(SETUP_REPEATS["verify"]):
        graphs, setup_s = _protocol_inputs(run, rows)
        setups.append(setup_s)
    finish_setup(run, setups)
    check_self_match(run, graphs, run.seed)
    gallery = [g for g, r in zip(graphs, rows) if r.role == "train"]
    probes = [g for g, r in zip(graphs, rows) if r.role == "test"]
    groups = {r.subject_id: r.group for r in rows}
    enrolled = {grp: {g.subject_id for g in gallery if groups[g.subject_id] == grp} for grp in evaluation.GROUPS}
    expected_claims = sum(len(enrolled[groups[p.subject_id]]) for p in probes)

    constraints = (Constraint.GIBMC, Constraint.RPBMC)
    rates: dict[Constraint, list[float]] = {c: [] for c in constraints}
    claim_costs: dict[Constraint, list[float]] = {c: [] for c in constraints}
    first: dict[Constraint, tuple[str, float]] = {}
    pass_claim_cost: list[float] = []
    claims_total = 0
    cost_total = 0.0
    timer = OpTimer()
    tracer.start()
    budget = Budget(seconds, run.traced)
    pass_no = 0
    while True:
        t_pass = perf_counter()
        pass_claims = 0
        pass_cost = 0.0
        for c in constraints:
            out_dir = work / "verify" / c.value
            # the traced run reports no costs; its spans stay unbroken
            segments = nullcontext() if run.traced else timer.every(evaluation, "match", MATCHES_PER_SEGMENT)
            timer.start()
            try:
                with tracer.request(), segments:
                    result = evaluation.run_protocol(gallery, probes, groups, c, out_dir=out_dir)
            except Exception as exc:  # every claim of the call is lost
                timer.stop()
                run.attempted += expected_claims
                run.fail_op(f"run_protocol({c.value})", repr(exc), expected_claims)
                continue
            dt, cost = timer.stop()
            with tracer.paused():
                n = len(result.records)
                run.attempted += n
                nan = sum(math.isnan(r.score) for r in result.records)
                if nan:
                    run.fail_op(f"run_protocol({c.value})", f"{nan} NaN claim scores", nan)
                rates[c].append(n / dt)
                claim_costs[c].append(cost / n)
                pass_claims += n
                pass_cost += cost
                digest = sha256_file(out_dir / "scores.csv")
                if c not in first:
                    first[c] = (digest, result.average_eer)
                    if c is Constraint.RPBMC:
                        check_rpbmc_claims(run, result, gallery, probes, groups)
                else:
                    run.expect(digest == first[c][0], f"{c.value}: scores.csv differs between passes")
        if pass_claims:
            pass_claim_cost.append(pass_cost / pass_claims)
        claims_total += pass_claims
        cost_total += pass_cost
        pass_no += 1
        if not budget.next_pass(perf_counter() - t_pass):
            break

    for c in constraints:
        digest, eer = first.get(c, (None, None))
        run.fingerprint[f"scores_sha256_{c.value}"] = digest
        run.fingerprint[f"eer_avg_{c.value}"] = eer
        run.report[f"{c.value}_claims_per_s"] = metric(statistics.median(rates[c]) if rates[c] else 0.0, "claims/s")
        run.report[f"{c.value}_claim_cost"] = metric(
            statistics.median(claim_costs[c]) if claim_costs[c] else 0.0, "ref"
        )
        run.report[f"eer_avg_{c.value}"] = metric(math.nan if eer is None else eer, "fraction")
    timer.report(run)
    run.samples.update(passes=pass_no, claims_per_s={c.value: rates[c] for c in constraints})
    run.metrics.update(
        op_cost_mean=cost_total / claims_total if claims_total else 0.0,
        op_cost_p50=quantile(pass_claim_cost, 50),
        op_cost_p90=quantile(pass_claim_cost, 90),
    )
    return pass_no


def identify(run: Run, work: Path, seconds: float, sizes: Sizes, tracer) -> int:
    rows = make_corpus(work, "protocol", run.seed, sizes.protocol)
    train = [r for r in rows if r.role == "train"]
    test = [r for r in rows if r.role == "test"]
    digest = DetectorConfig().digest()
    gallery_path = work / "identify.gsft"

    setups = []
    for _ in range(SETUP_REPEATS["identify"]):
        t0 = perf_counter()
        gallery = [extract_graph(r.image_path, r.subject_id, r.image_path.stem) for r in train]
        store.save(store.GalleryDb(detector_cfg_hash=digest, entries=tuple(gallery)), gallery_path)
        setups.append(perf_counter() - t0)
    finish_setup(run, setups)
    for g in gallery:
        check_descriptors(run, g)
    check_store_roundtrip(run, gallery_path, gallery)
    check_self_match(run, gallery, run.seed)
    keypoints = sum(g.n_vertices for g in gallery)

    op_ms: list[float] = []
    op_cost: list[float] = []
    rank1_rows: list[str] = []
    hits = 0
    timer = OpTimer()
    tracer.start()
    budget = Budget(seconds, run.traced)
    pass_no = 0
    while True:
        t_pass = perf_counter()
        done = 0
        for row in test:
            if not budget.next_op(pass_no):
                break
            probe_id = row.image_path.stem
            run.attempted += 1
            done += 1
            timer.start()
            try:
                with tracer.request():
                    db = store.load(gallery_path)
                    if db.detector_cfg_hash != digest:
                        raise GraphSiftError("gallery was built with a different detector config")
                    probe = extract_graph(row.image_path, "?", probe_id)
                    ranking = matcher.identify(probe, list(db.entries), Constraint.RPBMC)
            except Exception as exc:  # a failed op must not end the run
                timer.stop()
                run.fail_op(probe_id, repr(exc))
                if pass_no == 0:
                    rank1_rows.append(f"{probe_id},-,failed")
                continue
            wall, cost = timer.stop()
            with tracer.paused():
                if any(math.isnan(s.combined) for _, s in ranking):
                    run.fail_op(probe_id, "NaN score in the ranking")
                    if pass_no == 0:
                        rank1_rows.append(f"{probe_id},-,nan")
                    continue
                op_ms.append(wall * 1000.0)
                op_cost.append(cost)
                for subject, s in ranking:
                    check_rpbmc_score(run, s, f"{probe_id} vs {subject}")
                check_descriptors(run, probe)
                if pass_no == 0:
                    top, score = ranking[0]
                    keypoints += probe.n_vertices
                    hits += top == row.subject_id
                    rank1_rows.append(f"{probe_id},{top},{score.combined:.9g}")
        if done < len(test):
            break
        pass_no += 1
        if not budget.next_pass(perf_counter() - t_pass):
            break

    run.fingerprint["keypoints_total"] = keypoints
    run.fingerprint["rank1_sha256"] = sha256_text("\n".join(rank1_rows) + "\n")
    run.fingerprint["rank1_rate"] = hits / len(test)
    busy_s = sum(op_ms) / 1000.0
    timer.report(run)
    run.samples.update(queries=len(op_ms), full_passes=pass_no)
    run.report.update(
        identify_queries_per_s=metric(len(op_ms) / busy_s if busy_s else 0.0, "queries/s"),
        identify_ms_p50=metric(quantile(op_ms, 50), "ms"),
        identify_ms_p90=metric(quantile(op_ms, 90), "ms"),
        rank1_rate=metric(hits / len(test), "fraction"),
    )
    run.metrics.update(
        op_cost_mean=statistics.fmean(op_cost) if op_cost else 0.0,
        op_cost_p50=quantile(op_cost, 50),
        op_cost_p90=quantile(op_cost, 90),
    )
    return pass_no


WORKLOAD_FNS = {"enroll": enroll, "verify": verify, "identify": identify}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_cost_mean": "ref",
    "op_cost_p50": "ref",
    "op_cost_p90": "ref",
}


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()
) -> Run:
    run = Run(workload, seed, traced)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if traced else NoTrace()
    try:
        passes = WORKLOAD_FNS[workload](run, work, seconds, sizes, tracer)
    finally:
        tracer.stop()
        shutil.rmtree(work, ignore_errors=True)

    run.report["peak_rss_mb"] = metric(peak_rss_mb(), "MiB")
    if traced:
        tracer.write(WORK / f"trace-{workload}.tsv")
        layers = layer_metrics(tracer, max(passes, 1))
        run.metrics = {name: metric(value, unit(name)) for name, value in layers.items()}
    else:
        run.metrics.update(
            setup_s=run.report["setup_s"]["value"],
            peak_rss_mb=run.report["peak_rss_mb"]["value"],
        )
        run.metrics = {
            name: metric(run.metrics[name], u) for name, u in END_TO_END_UNITS.items()
        }
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(graphsift.__file__).resolve().parent.parent != SRC.resolve():
        print(f"graphsift was imported from {graphsift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run.report_line()))
    print(json.dumps(run.result_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
