"""Two-group verification metrics: ROC, prior EER, threshold transfer, WER.

Scores are dissimilarities, so a claim is accepted when its score is
less than or equal to the threshold. The subject pool is split into two
disjoint groups; each group's scores give a pooled ROC and prior-EER
threshold, that threshold is transferred to the other group, and the
weighted error rate WER(R) = (FRR + R * FAR) / (1 + R) is reported for
R in {0.1, 1, 10} in both transfer directions.

Client-specific thresholds (a per-subject prior EER over the claims
against that subject) are computed within each group and reported as a
secondary statistic; the transferred threshold itself is the pooled
one, since a subject enrolled in one group receives no claims in the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateScores, GroupOverlap, InsufficientClaims
from .facegraph import FaceGraph, _hold_edge_table
from .matcher import Constraint, _csv_field, match

GROUPS = ("G1", "G2")
WER_RATIOS = (0.1, 1.0, 10.0)

# (thresholds, far, frr) of one ROC sweep
_Curve = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ScoreRecord:
    claimed_id: str
    true_id: str
    score: float
    group: str

    @property
    def genuine(self) -> bool:
        return self.claimed_id == self.true_id


@dataclass(frozen=True)
class WerReport:
    r: float
    threshold_source_group: str
    far: float
    frr: float
    wer: float


def _split_scores(records: Iterable[ScoreRecord]) -> tuple[np.ndarray, np.ndarray]:
    genuine = np.sort([r.score for r in records if r.genuine])
    impostor = np.sort([r.score for r in records if not r.genuine])
    if genuine.size == 0 or impostor.size == 0:
        raise DegenerateScores(
            f"need both claim kinds, got {genuine.size} genuine / "
            f"{impostor.size} impostor"
        )
    return genuine, impostor


def roc(records: list[ScoreRecord]) -> _Curve:
    """ROC sweep as float64 arrays (thresholds, far, frr): one point per
    distinct score plus +-inf sentinels, thresholds strictly ascending.

    FAR(t) is the impostor fraction with score <= t, FRR(t) the genuine
    fraction with score > t; both are step functions of the threshold,
    so sweeping the distinct scores loses nothing.
    """
    genuine, impostor = _split_scores(records)
    thresholds = np.unique(
        np.concatenate((genuine, impostor, [-math.inf, math.inf]))
    )
    far = np.searchsorted(impostor, thresholds, side="right") / impostor.size
    frr = (
        genuine.size - np.searchsorted(genuine, thresholds, side="right")
    ) / genuine.size
    return thresholds, far, frr


def _eer_point(curve: _Curve) -> tuple[float, float]:
    """(EER, threshold) at the sweep point minimizing |FAR - FRR|.

    Finite samples rarely give FAR = FRR exactly, so the EER is the
    midpoint of the two rates at the best threshold. argmin takes the
    first minimum and the thresholds ascend, so ties go to the smaller
    threshold.
    """
    thresholds, far, frr = curve
    i = int(np.argmin(np.abs(far - frr)))
    return (float(far[i]) + float(frr[i])) / 2.0, float(thresholds[i])


def prior_eer(records: list[ScoreRecord]) -> tuple[float, float]:
    """(EER, threshold) of the records' ROC sweep; see _eer_point."""
    return _eer_point(roc(records))


def client_eer_stats(
    records: list[ScoreRecord],
) -> dict[str, tuple[float, float]]:
    """Per-subject (EER, threshold) over the claims against that subject."""
    by_subject: dict[str, list[ScoreRecord]] = {}
    for r in records:
        by_subject.setdefault(r.claimed_id, []).append(r)
    out: dict[str, tuple[float, float]] = {}
    for subject in sorted(by_subject):
        try:
            out[subject] = prior_eer(by_subject[subject])
        except DegenerateScores as err:
            raise InsufficientClaims(subject, str(err)) from None
    return out


def wer(far: float, frr: float, r: float) -> float:
    """Weighted error rate (FRR + R * FAR) / (1 + R)."""
    if not (0.0 <= far <= 1.0 and 0.0 <= frr <= 1.0):
        raise ValueError(f"rates must lie in [0, 1], got far={far}, frr={frr}")
    if not 0.0 < r < math.inf:
        raise ValueError(f"cost ratio must be positive and finite, got {r}")
    return (frr + r * far) / (1.0 + r)


def normalize_groups(
    assignment: Mapping[str, str] | Iterable[tuple[str, str]],
) -> dict[str, str]:
    """Validate a subject -> group assignment; a subject listed under
    both groups raises GroupOverlap."""
    items = assignment.items() if isinstance(assignment, Mapping) else assignment
    groups: dict[str, str] = {}
    for subject, group in items:
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r} for subject {subject!r}")
        if groups.get(subject, group) != group:
            raise GroupOverlap(f"subject {subject!r} assigned to both groups")
        groups[subject] = group
    return groups


def generate_scores(
    gallery: list[FaceGraph],
    probes: list[FaceGraph],
    groups: Mapping[str, str],
    constraint: Constraint,
) -> list[ScoreRecord]:
    """All claims: every probe against every enrolled subject of its group.

    The claim score is the minimum combined match score over the
    claimed subject's enrolled graphs. Each enrolled graph meets every
    probe of its group, so it keeps a table of its edge attributes (see
    facegraph._hold_edge_table) instead of recomputing them per match.
    """
    enrolled: dict[str, dict[str, list[FaceGraph]]] = {g: {} for g in GROUPS}
    for g in gallery:
        group = groups.get(g.subject_id)
        if group is None:
            raise ValueError(f"no group assignment for subject {g.subject_id!r}")
        enrolled[group].setdefault(g.subject_id, []).append(g)
        _hold_edge_table(g)

    records = []
    for probe in probes:
        group = groups.get(probe.subject_id)
        if group is None:
            raise ValueError(f"no group assignment for subject {probe.subject_id!r}")
        for claimed in sorted(enrolled[group]):
            score = min(
                match(g, probe, constraint).combined
                for g in enrolled[group][claimed]
            )
            records.append(
                ScoreRecord(
                    claimed_id=claimed,
                    true_id=probe.subject_id,
                    score=score,
                    group=group,
                )
            )
    return records


@dataclass(frozen=True)
class ProtocolResult:
    constraint: Constraint
    records: tuple[ScoreRecord, ...]
    eer: dict[str, float]
    eer_threshold: dict[str, float]
    client_eer_mean: dict[str, float]
    wer_rows: tuple[WerReport, ...]

    @property
    def average_eer(self) -> float:
        return sum(self.eer.values()) / len(self.eer)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def run_protocol(
    gallery: list[FaceGraph],
    probes: list[FaceGraph],
    assignment: Mapping[str, str] | Iterable[tuple[str, str]],
    constraint: Constraint = Constraint.RPBMC,
    out_dir: str | Path | None = None,
) -> ProtocolResult:
    """Full two-group run: scores, per-group EER, dual threshold
    transfer, WER table; artifacts written under out_dir when given."""
    groups = normalize_groups(assignment)
    records = generate_scores(gallery, probes, groups, constraint)
    by_group = {g: [r for r in records if r.group == g] for g in GROUPS}

    eer: dict[str, float] = {}
    thr: dict[str, float] = {}
    client_mean: dict[str, float] = {}
    curves: dict[str, _Curve] = {}
    for g in GROUPS:
        try:
            curves[g] = roc(by_group[g])
        except DegenerateScores as err:
            raise DegenerateScores(f"group {g}: {err}") from None
        eer[g], thr[g] = _eer_point(curves[g])
        stats = client_eer_stats(by_group[g])
        client_mean[g] = sum(e for e, _ in stats.values()) / len(stats)

    wer_rows = []
    for src, dst in zip(GROUPS, reversed(GROUPS)):
        # dst's rates at thr[src] are those of its last sweep point at or
        # below it: no dst score lies between the two
        thresholds, far_curve, frr_curve = curves[dst]
        i = int(np.searchsorted(thresholds, thr[src], side="right")) - 1
        far, frr = float(far_curve[i]), float(frr_curve[i])
        for r in WER_RATIOS:
            wer_rows.append(WerReport(r, src, far, frr, wer(far, frr, r)))

    result = ProtocolResult(
        constraint=constraint,
        records=tuple(records),
        eer=eer,
        eer_threshold=thr,
        client_eer_mean=client_mean,
        wer_rows=tuple(wer_rows),
    )
    if out_dir is not None:
        write_artifacts(result, curves, Path(out_dir))
    return result


def _direction(src: str) -> str:
    """'G1->G2' for the threshold of group src judged on the other group."""
    return f"{src}->{GROUPS[1] if src == GROUPS[0] else GROUPS[0]}"


def write_artifacts(
    result: ProtocolResult,
    curves: Mapping[str, _Curve],
    out_dir: Path,
) -> None:
    """Write scores.csv, roc_<group>.csv, wer_report.csv and report.txt.

    Subject ids go into comma-separated rows unquoted, so an id holding
    a comma or a line break raises ValueError before any file is written.
    """
    ids = {i for r in result.records for i in (r.claimed_id, r.true_id)}
    for i in sorted(ids):
        _csv_field("subject id", i)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["claimed_id,true_id,group,score"]
    lines += [
        f"{r.claimed_id},{r.true_id},{r.group},{_fmt(r.score)}"
        for r in result.records
    ]
    (out_dir / "scores.csv").write_text("\n".join(lines) + "\n")

    for g, curve in curves.items():
        lines = ["threshold,far,frr"]
        lines += [
            f"{_fmt(t)},{_fmt(far)},{_fmt(frr)}"
            for t, far, frr in zip(*(a.tolist() for a in curve))
        ]
        (out_dir / f"roc_{g}.csv").write_text("\n".join(lines) + "\n")

    lines = ["constraint,r,direction,far,frr,wer"]
    for row in result.wer_rows:
        lines.append(
            f"{result.constraint.value},{_fmt(row.r)},"
            f"{_direction(row.threshold_source_group)},"
            f"{_fmt(row.far)},{_fmt(row.frr)},{_fmt(row.wer)}"
        )
    (out_dir / "wer_report.csv").write_text("\n".join(lines) + "\n")

    (out_dir / "report.txt").write_text(format_report(result))


def format_report(result: ProtocolResult) -> str:
    n_gen = sum(r.genuine for r in result.records)
    out = [
        f"constraint: {result.constraint.value}",
        f"claims: {len(result.records)} "
        f"({n_gen} genuine, {len(result.records) - n_gen} impostor)",
        "",
    ]
    for g in GROUPS:
        out.append(
            f"prior EER {g}: {100.0 * result.eer[g]:.2f}%  "
            f"(threshold {_fmt(result.eer_threshold[g])}, "
            f"mean client EER {100.0 * result.client_eer_mean[g]:.2f}%)"
        )
    out.append(f"average prior EER: {100.0 * result.average_eer:.2f}%")
    out.append("")
    for row in result.wer_rows:
        out.append(
            f"WER(R={row.r:g}) {_direction(row.threshold_source_group)}: "
            f"{100.0 * row.wer:.2f}%  "
            f"(FAR {100.0 * row.far:.2f}%, FRR {100.0 * row.frr:.2f}%)"
        )
    return "\n".join(out) + "\n"
