"""Complete-graph face representation and vertex correspondence.

A face is the complete graph over its keypoints: every vertex carries
the keypoint's descriptor, and every unordered vertex pair is an edge.
Edges are never materialized; their attributes (normalized length,
orientation difference, log-scale difference) are computed on demand
from per-vertex arrays the graph derives once from its keypoints.

Correspondence between two graphs compares descriptors only. Location,
scale and orientation are deliberately kept out of vertex matching
(they are not comparable across unregistered images) and enter through
edge geometry instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import EmptyGraph, TooFewKeypoints
from .sift import Keypoints


@dataclass(frozen=True)
class CorrespondenceSet:
    """Mutual vertex pairs, one-to-one in both coordinates: ``pairs`` is
    a (k, 2) array of (gallery, probe) index rows in ascending gallery
    order and ``distances`` the k descriptor distances."""

    pairs: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class FaceGraph:
    """Complete graph over a face's keypoints.

    Every match reads the graph through arrays derived once from its
    keypoint table at construction: ``descriptors`` (float64, n x 128),
    ``xy`` (n x 2), ``theta`` (orientations), ``logscale`` (natural log
    of each scale) and ``diameter``, the maximum pairwise endpoint
    distance.
    """

    vertices: Keypoints
    subject_id: str
    image_id: str
    descriptors: np.ndarray = field(init=False, repr=False, compare=False)
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    logscale: np.ndarray = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, compare=False)

    def __post_init__(self):
        kps = self.vertices
        if len(kps) == 0:
            raise EmptyGraph(f"{self.image_id!r}: a face graph needs vertices")
        xy = kps.xy.astype(np.float64)
        derived = {
            "descriptors": kps.descriptors.astype(np.float64),
            "xy": xy,
            "theta": kps.orientation.astype(np.float64),
            # math.log, not np.log: np.log differs in the last ulp on
            # some float32 scales, which would move scores
            "logscale": np.fromiter(map(math.log, kps.scale.tolist()), float, len(kps)),
            "diameter": float(cdist(xy, xy).max()),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def build_graph(kps: Keypoints, subject_id: str, image_id: str) -> FaceGraph:
    """Assemble a face graph; needs at least two keypoints."""
    if len(kps) < 2:
        raise TooFewKeypoints(
            f"{image_id!r}: got {len(kps)} keypoints, need at least 2"
        )
    return FaceGraph(vertices=kps, subject_id=subject_id, image_id=image_id)


# Sub-graphs of up to this many vertices take their edge indices from a
# cache of at most 129 entries; a size-k entry holds k(k-1) indices, so
# the full cache stays under 6 MB. Larger sub-graphs, which pairings of
# face graphs rarely reach, compute theirs per call.
_TRIU_CACHE_MAX_K = 128


@functools.lru_cache(maxsize=_TRIU_CACHE_MAX_K + 1)
def _triu_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(k, k=1), shared and read-only."""
    a, b = np.triu_indices(k, k=1)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def edge_component_arrays(
    g: FaceGraph, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge attributes for all edges of the sub-graph on ``idx``.

    Edges follow np.triu_indices order over the given vertex sequence.
    Returns the length normalized by the graph diameter (in [0, 1]),
    the orientation difference wrapped to (-pi, pi], and the log-scale
    difference; the last two flip sign when an edge's endpoints swap.
    """
    idx = np.asarray(idx, dtype=np.intp)
    k = len(idx)
    a, b = _triu_indices(k) if k <= _TRIU_CACHE_MAX_K else np.triu_indices(k, k=1)
    a, b = idx[a], idx[b]
    # 1-D gathers: indexing rows of the (n, 2) xy array costs several
    # times more than indexing its two columns
    x, y = g.xy.T
    length = np.hypot(x[a] - x[b], y[a] - y[b])
    if g.diameter > 0.0:
        length = length / g.diameter
    dtheta = (g.theta[a] - g.theta[b] + math.pi) % (2.0 * math.pi) - math.pi
    dtheta[dtheta == -math.pi] = math.pi
    return length, dtheta, g.logscale[a] - g.logscale[b]


def _ratio_accepted(dist: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise nearest neighbor and whether it passes the
    nearest/second-nearest test.

    Acceptance is d1 < ratio * d2; with a single column d2 is infinite,
    so every row is accepted. Equal distances tie-break to the lowest
    column index via argmin, and a duplicated minimum leaves d2 = d1
    (the tied entry stays in the rest of the row).
    """
    n_rows, n_cols = dist.shape
    best = dist.argmin(axis=1)
    d1 = dist[np.arange(n_rows), best]
    if n_cols == 1:
        d2 = np.full(n_rows, math.inf)
    else:
        d2 = np.partition(dist, 1, axis=1)[:, 1]
    return best, d1 < ratio * d2


def mutual_correspondence(
    g1: FaceGraph, g2: FaceGraph, ratio: float = 0.8
) -> CorrespondenceSet:
    """Pairs kept iff each endpoint is the other's ratio-test-accepted
    nearest neighbor; one-to-one in both coordinates by construction."""
    dist = cdist(g1.descriptors, g2.descriptors)
    fwd, fwd_ok = _ratio_accepted(dist, ratio)
    bwd, bwd_ok = _ratio_accepted(dist.T, ratio)
    rows = np.flatnonzero(fwd_ok & bwd_ok[fwd] & (bwd[fwd] == np.arange(len(fwd))))
    cols = fwd[rows]
    # the (k, 2) transpose of a (2, k) array; cheaper than column_stack
    return CorrespondenceSet(pairs=np.array((rows, cols)).T, distances=dist[rows, cols])
