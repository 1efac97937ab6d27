"""Graph-pair dissimilarity scoring.

Two matching constraints are provided. The gallery-image-based one
(GIBMC) takes, for every gallery vertex, its minimum descriptor
distance over all probe vertices; probe vertices may serve several
gallery vertices. The reduced-point-based one (RPBMC) keeps only
mutually-best vertex pairs, so the pairing is strictly one-to-one.

Either way the vertex stage yields a list of pair distances and the
edge stage compares edge attributes over the paired sub-graphs. Both
lists are then weighted by the Gaussian empirical rule: distances
within 1, 2 and 3 standard deviations of the list mean are multiplied
by 0.075, 0.05 and 0.025; anything farther is dropped. The combined
score blends the two weighted means (equal weight by default). Lower
is always more similar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .config import MatchConfig
from .errors import EmptyGallery, TooFewKeypoints
from .facegraph import (
    CorrespondenceSet,
    FaceGraph,
    edge_component_arrays,
    mutual_correspondence,
)


class Constraint(Enum):
    GIBMC = "gibmc"
    RPBMC = "rpbmc"


@dataclass(frozen=True)
class MatchScore:
    """Scores for one gallery/probe graph pair.

    vertex_raw and edge_raw are plain means of the pair distances;
    the weighted fields apply the empirical-rule multipliers first.
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
    pairing the GIBMC edge stage runs on, all from one distance matrix.

    The pairing takes each gallery vertex to its nearest probe vertex
    and keeps, per probe target, only the smallest-distance gallery
    vertex (ties keep the lowest gallery index). It is a (k, 2) index
    array of (gallery, probe) rows in ascending gallery order.
    """
    dist = cdist(g_gallery.descriptors, g_probe.descriptors)
    best = dist.argmin(axis=1)
    minima = dist[np.arange(len(dist)), best]
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

    ``vertex_pairs`` holds one (gallery, probe) index row per pair.
    Edge (a, a') corresponds to (b, b') iff a-b and a'-b' are vertex
    pairs; the per-edge distance is the Euclidean norm of the
    component-wise difference of their edge attributes. Fewer than 2
    vertex pairs means no edges: the result is an empty list and 0.0,
    flagged by n_edge_pairs = 0.
    """
    if len(vertex_pairs) < 2:
        return np.empty(0), 0.0
    pairs = np.asarray(vertex_pairs, dtype=np.intp)
    gl, gt, gs = edge_component_arrays(g_gallery, pairs[:, 0])
    pl, pt, ps = edge_component_arrays(g_probe, pairs[:, 1])
    dists = np.sqrt((gl - pl) ** 2 + (gt - pt) ** 2 + (gs - ps) ** 2)
    return dists, float(dists.sum() / len(dists))


def rpbmc_pairs(
    g_gallery: FaceGraph, g_probe: FaceGraph, ratio: float = 0.8
) -> CorrespondenceSet:
    """Mutually-best vertex pairs; strictly one-to-one.

    Reciprocity already forces one pair per target (any multiple
    assignment keeps only its reciprocated, minimum-distance member);
    the structural check here guards that contract.
    """
    cs = mutual_correspondence(g_gallery, g_probe, ratio)
    # Python sets: a pairing holds a few pairs, too few for numpy calls to pay
    gallery_ids, probe_ids = cs.pairs.T.tolist()
    if len(set(gallery_ids)) != len(cs) or len(set(probe_ids)) != len(cs):
        raise AssertionError("mutual correspondence produced a repeated vertex")
    return cs


def band_multipliers(
    distances: np.ndarray,
    mu: float,
    sigma: float,
    multipliers: tuple[float, float, float] = (0.075, 0.05, 0.025),
) -> np.ndarray:
    """Empirical-rule multiplier for each distance.

    Bands are closed on the outer edge: within 1 sigma of the mean
    (inclusive) takes the first multiplier, then (1, 2] sigma the
    second, (2, 3] sigma the third, and beyond 3 sigma the multiplier
    is 0. A zero sigma keeps only the values equal to the mean.
    """
    z = np.abs(np.asarray(distances, dtype=np.float64) - mu)
    # band = how many of the edges sigma, 2 sigma, 3 sigma z is not within;
    # 3 (beyond 3 sigma, or a NaN no comparison admits) takes the last 0
    band = 3 - (z <= sigma) - (z <= 2.0 * sigma) - (z <= 3.0 * sigma)
    return np.array((*multipliers, 0.0))[band]


def weighted_mean(
    distances: np.ndarray | list[float],
    multipliers: tuple[float, float, float] = (0.075, 0.05, 0.025),
) -> float:
    """Mean of the weighted distances over the surviving entries only.

    Beyond-3-sigma entries carry weight 0 and are excluded from the
    denominator. In exact arithmetic the entries closest to the mean lie
    within one sigma, so one always survives; where rounding leaves none
    (sigma rounded just below equal deviations, or squared deviations
    that underflow to 0), those closest entries take the first
    multiplier. An empty list, or one whose mean is not finite (an inf
    or NaN entry), raises ValueError.
    """
    arr = np.asarray(distances, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("cannot weight an empty distance list")
    # the reductions np.mean and np.std (population) run, without their
    # per-call dispatch: sum over n, then squared deviations over n
    mu = float(arr.sum() / n)
    if not math.isfinite(mu):
        raise ValueError(f"cannot weight distances whose mean is {mu}")
    dev = arr - mu
    sigma = math.sqrt(float((dev * dev).sum() / n))
    mults = band_multipliers(arr, mu, sigma, multipliers)
    kept = np.count_nonzero(mults)
    if kept == 0:
        z = np.abs(dev)
        mults = np.where(z == z.min(), multipliers[0], 0.0)
        kept = np.count_nonzero(mults)
    return float((arr * mults).sum() / kept)


_DEFAULT_MATCH_CONFIG = MatchConfig()


def match(
    g_gallery: FaceGraph,
    g_probe: FaceGraph,
    constraint: Constraint = Constraint.RPBMC,
    cfg: MatchConfig | None = None,
) -> MatchScore:
    """Score one gallery/probe pair under the chosen constraint."""
    if cfg is None:
        cfg = _DEFAULT_MATCH_CONFIG
    if g_gallery.n_vertices < 2 or g_probe.n_vertices < 2:
        raise TooFewKeypoints("matching needs graphs with at least 2 vertices")

    if constraint is Constraint.GIBMC:
        vertex_dists, vertex_raw, pairs = gibmc_vertex_score(g_gallery, g_probe)
    else:
        cs = rpbmc_pairs(g_gallery, g_probe, cfg.ratio)
        if len(cs) < 2:
            # fewer than 2 mutual pairs: the reduced point sets cannot
            # form graphs, so the pair is maximally dissimilar
            inf = math.inf
            return MatchScore(inf, inf, inf, inf, inf, len(cs), 0, constraint)
        vertex_dists, pairs = cs.distances, cs.pairs
        vertex_raw = float(vertex_dists.sum() / len(vertex_dists))

    edge_dists, edge_raw = gibmc_edge_score(g_gallery, g_probe, pairs)
    vertex_weighted = weighted_mean(vertex_dists, cfg.multipliers)
    if edge_dists.size:
        edge_weighted = weighted_mean(edge_dists, cfg.multipliers)
        combined = cfg.blend * vertex_weighted + (1.0 - cfg.blend) * edge_weighted
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
    cfg: MatchConfig | None = None,
) -> list[tuple[str, MatchScore]]:
    """Rank gallery subjects by their best (lowest) combined score.

    Ties break lexicographically on subject id so the ranking is
    deterministic regardless of gallery order.
    """
    if not gallery:
        raise EmptyGallery("cannot identify against an empty gallery")
    best: dict[str, MatchScore] = {}
    for g in gallery:
        score = match(g, probe, constraint, cfg)
        held = best.get(g.subject_id)
        if held is None or score.combined < held.combined:
            best[g.subject_id] = score
    return sorted(best.items(), key=lambda kv: (kv[1].combined, kv[0]))


REPORT_HEADER = (
    "probe_image_id,gallery_subject_id,constraint,vertex_raw,edge_raw,"
    "vertex_weighted,edge_weighted,combined,n_vertex_pairs,n_edge_pairs"
)


def report_row(probe_image_id: str, subject_id: str, score: MatchScore) -> str:
    """One CSV line in the score-report format."""
    return ",".join(
        [
            probe_image_id,
            subject_id,
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
