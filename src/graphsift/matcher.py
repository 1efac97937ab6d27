"""Graph-pair dissimilarity scoring.

Two matching constraints are provided. The gallery-image-based one
(GIBMC) takes, for every gallery vertex, its minimum descriptor
distance over all probe vertices; probe vertices may serve several
gallery vertices. The reduced-point-based one (RPBMC) keeps only
mutually-best vertex pairs, so the pairing is strictly one-to-one.
Both take their nearest neighbours and descriptor distances from
facegraph's exact search, which matches a dense cdist bit for bit
without computing every distance.

Either way the vertex stage yields a list of pair distances and the
edge stage compares edge attributes over the paired sub-graphs. Both
lists are then weighted by the Gaussian empirical rule: distances
within 1, 2 and 3 standard deviations of the list mean take the
paper's fixed weights in ``_WEIGHTS``; anything farther is dropped. The
combined score is the plain mean of the two weighted means. Lower is
always more similar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyGallery
from .facegraph import (
    CorrespondenceSet,
    FaceGraph,
    edge_component_arrays,
    mutual_correspondence,
    nearest,
)


class Constraint(Enum):
    GIBMC = "gibmc"
    RPBMC = "rpbmc"


@dataclass(frozen=True)
class MatchScore:
    """Scores for one gallery/probe graph pair.

    vertex_raw and edge_raw are plain means of the pair distances;
    the weighted fields apply the empirical-rule weights first, and
    combined is the plain mean of the two weighted fields.
    n_edge_pairs = 0 flags a pairing too small to form edges: under
    GIBMC the vertex component then carries the combined score alone,
    and under RPBMC (where the vertex evidence itself is the pairing)
    every score field is +inf, since fewer than 2 mutual pairs cannot
    form the reduced graphs the constraint is defined over.
    """

    vertex_raw: float
    edge_raw: float
    vertex_weighted: float
    edge_weighted: float
    combined: float
    n_vertex_pairs: int
    n_edge_pairs: int
    constraint: Constraint


def gibmc_vertex_score(
    g_gallery: FaceGraph, g_probe: FaceGraph
) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-gallery-vertex minimum descriptor distance, its mean, and the
    pairing the GIBMC edge stage runs on, all from one exact
    nearest-neighbour search (see facegraph).

    The pairing takes each gallery vertex to its nearest probe vertex
    and keeps, per probe target, only the smallest-distance gallery
    vertex (ties keep the lowest gallery index). It is a (k, 2) index
    array of (gallery, probe) rows in ascending gallery order.
    """
    best, minima = nearest(g_gallery, g_probe)
    # a stable sort by target, then distance, leaves the lowest gallery
    # index first among ties, so the first row of each target keeps it
    order = np.lexsort((minima, best))
    target = best[order]
    kept = np.sort(order[np.concatenate(([True], target[1:] != target[:-1]))])
    return minima, float(minima.sum() / len(minima)), np.array((kept, best[kept])).T


def gibmc_edge_score(
    g_gallery: FaceGraph,
    g_probe: FaceGraph,
    vertex_pairs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Edge-attribute distances over the paired sub-graphs.

    ``vertex_pairs`` is a (k, 2) intp array of (gallery, probe) index
    rows, as both pairings return it.
    Edge (a, a') corresponds to (b, b') iff a-b and a'-b' are vertex
    pairs; the per-edge distance is the Euclidean norm of the
    component-wise difference of their edge attributes. Fewer than 2
    vertex pairs means no edges: the result is an empty list and 0.0,
    flagged by n_edge_pairs = 0.
    """
    if len(vertex_pairs) < 2:
        return np.empty(0), 0.0
    diff = edge_component_arrays(g_gallery, vertex_pairs[:, 0])
    diff -= edge_component_arrays(g_probe, vertex_pairs[:, 1])
    diff *= diff
    # a sum over the outer axis of the C-contiguous (3, edges) array adds
    # its rows in order: (length^2 + angle^2) + log-scale^2
    dists = np.sqrt(np.add.reduce(diff, axis=0))
    return dists, float(dists.sum() / len(dists))


def rpbmc_pairs(g_gallery: FaceGraph, g_probe: FaceGraph) -> CorrespondenceSet:
    """Mutually-best vertex pairs that pass Lowe's ratio test at 0.8;
    strictly one-to-one, since reciprocity leaves each vertex at most one
    pair."""
    return mutual_correspondence(g_gallery, g_probe)


# The paper's weights for distances within 1, 2 and 3 sigma of the mean,
# then 0 beyond 3 sigma. The first is positive: the distances closest to
# the mean always take it, so a weighted mean never divides by zero.
_WEIGHTS = np.array((0.075, 0.05, 0.025, 0.0))
_WEIGHTS.flags.writeable = False


def _band_multipliers(z: np.ndarray, sigma: float) -> np.ndarray:
    """Empirical-rule weight for each absolute deviation ``z`` from the
    mean.

    Bands are closed on the outer edge: within 1 sigma of the mean
    (inclusive) takes the first weight, then (1, 2] sigma the second,
    (2, 3] sigma the third, and beyond 3 sigma the weight is 0. A zero
    sigma keeps only the values equal to the mean. ``sigma`` is finite
    and at least 0, as weighted_mean computes it.
    """
    # band = how many of the edges sigma, 2 sigma, 3 sigma lie below z;
    # 3 (beyond 3 sigma) takes the last 0
    band = np.array((sigma, 2.0 * sigma, 3.0 * sigma)).searchsorted(z)
    return _WEIGHTS.take(band)


# Below 2**480 in magnitude, entries keep their sum and every squared
# deviation (under 4 * 2**960) finite in any list of fewer than 2**61.
_MAGNITUDE_LIMIT = 2.0**480


def weighted_mean(distances: np.ndarray | list[float]) -> float:
    """Mean of the weighted distances over the surviving entries only.

    Beyond-3-sigma entries carry weight 0 and are excluded from the
    denominator. In exact arithmetic the entries closest to the mean lie
    within one sigma, so one always survives; where rounding leaves none
    (sigma rounded just below equal deviations, or squared deviations
    that underflow to 0), those closest entries take the first weight.
    An empty list raises ValueError, and so does one with an inf or NaN
    entry (whose mean is not finite) or with an entry of magnitude
    2**480 or more (whose sum or spread could overflow).
    """
    arr = np.asarray(distances, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("cannot weight an empty distance list")
    # checked before the sums, which warn on opposite infinities and on
    # overflow; a NaN maximum fails the comparison too
    if not np.abs(arr).max() < _MAGNITUDE_LIMIT:
        raise ValueError("cannot weight distances whose mean or spread is not finite")
    # the reductions np.mean and np.std (population) run, without their
    # per-call dispatch: sum over n, then squared deviations over n
    mu = float(np.add.reduce(arr) / n)
    dev = arr - mu
    sigma = math.sqrt(float(np.add.reduce(dev * dev) / n))
    z = np.abs(dev, out=dev)
    mults = _band_multipliers(z, sigma)
    kept = np.count_nonzero(mults)
    if kept == 0:
        mults = np.where(z == z.min(), _WEIGHTS[0], 0.0)
        kept = np.count_nonzero(mults)
    return float(np.add.reduce(arr * mults) / kept)


def match(
    g_gallery: FaceGraph,
    g_probe: FaceGraph,
    constraint: Constraint = Constraint.RPBMC,
) -> MatchScore:
    """Score one gallery/probe pair under the chosen constraint."""
    if constraint is Constraint.GIBMC:
        vertex_dists, vertex_raw, pairs = gibmc_vertex_score(g_gallery, g_probe)
    else:
        cs = rpbmc_pairs(g_gallery, g_probe)
        if len(cs) < 2:
            # fewer than 2 mutual pairs: the reduced point sets cannot
            # form graphs, so the pair is maximally dissimilar
            inf = math.inf
            return MatchScore(inf, inf, inf, inf, inf, len(cs), 0, constraint)
        vertex_dists, pairs = cs.distances, cs.pairs
        vertex_raw = float(vertex_dists.sum() / len(vertex_dists))

    edge_dists, edge_raw = gibmc_edge_score(g_gallery, g_probe, pairs)
    vertex_weighted = weighted_mean(vertex_dists)
    if edge_dists.size:
        edge_weighted = weighted_mean(edge_dists)
        # halving each term first: 0.5 * (v + e) rounds differently
        # where the scores are subnormal
        combined = 0.5 * vertex_weighted + 0.5 * edge_weighted
    else:
        # GIBMC with a collapsed pairing: no edge evidence either way,
        # so the vertex component carries the whole score
        edge_weighted = 0.0
        combined = vertex_weighted
    return MatchScore(
        vertex_raw=vertex_raw,
        edge_raw=edge_raw,
        vertex_weighted=vertex_weighted,
        edge_weighted=edge_weighted,
        combined=combined,
        n_vertex_pairs=len(vertex_dists),
        n_edge_pairs=len(edge_dists),
        constraint=constraint,
    )


def identify(
    probe: FaceGraph,
    gallery: list[FaceGraph],
    constraint: Constraint = Constraint.RPBMC,
) -> list[tuple[str, MatchScore]]:
    """Rank gallery subjects by their best (lowest) combined score.

    Ties break lexicographically on subject id so the ranking is
    deterministic regardless of gallery order.
    """
    if not gallery:
        raise EmptyGallery("cannot identify against an empty gallery")
    best: dict[str, MatchScore] = {}
    for g in gallery:
        score = match(g, probe, constraint)
        held = best.get(g.subject_id)
        if held is None or score.combined < held.combined:
            best[g.subject_id] = score
    return sorted(best.items(), key=lambda kv: (kv[1].combined, kv[0]))


REPORT_HEADER = (
    "probe_image_id,gallery_subject_id,constraint,vertex_raw,edge_raw,"
    "vertex_weighted,edge_weighted,combined,n_vertex_pairs,n_edge_pairs"
)


def _csv_field(name: str, text: str) -> str:
    """text, which goes into a CSV row unquoted; a comma or a line break
    in it raises ValueError naming the field."""
    if any(c in text for c in ",\n\r"):
        raise ValueError(f"{name} {text!r} cannot go into a CSV row")
    return text


def report_row(probe_image_id: str, subject_id: str, score: MatchScore) -> str:
    """One CSV line in the score-report format; an id holding a comma or
    a line break raises ValueError."""
    return ",".join(
        [
            _csv_field("probe image id", probe_image_id),
            _csv_field("subject id", subject_id),
            score.constraint.value,
            f"{score.vertex_raw:.9g}",
            f"{score.edge_raw:.9g}",
            f"{score.vertex_weighted:.9g}",
            f"{score.edge_weighted:.9g}",
            f"{score.combined:.9g}",
            str(score.n_vertex_pairs),
            str(score.n_edge_pairs),
        ]
    )
