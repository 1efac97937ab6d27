"""Complete-graph face representation and vertex correspondence.

A face is the complete graph over its keypoints: every vertex carries
the keypoint's descriptor, and every unordered vertex pair is an edge.
Edge attributes (normalized length, orientation difference, log-scale
difference) are computed on demand from per-vertex arrays the graph
derives once from its keypoints. Only a graph enrolled by the
verification protocol, which meets every probe of its group, holds
them materialized: a read-only table of all its edges, from which a
sub-graph in ascending vertex order takes its edges with one gather.

Correspondence between two graphs compares descriptors only. Location,
scale and orientation are deliberately kept out of vertex matching
(they are not comparable across unregistered images) and enter through
edge geometry instead.

A descriptor distance is Euclidean and bit for bit what scipy's
``cdist`` gives: the square root of the float64 sum of squared
differences, added in dimension order. Nearest neighbours are found
without that distance for every vertex pair: one matrix product
estimates all of them, a rigorous error bound settles which vertex is
nearest and which ratio tests pass, and only what the bound leaves
open, plus every distance returned, is computed exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TooFewKeypoints
from .sift import DESCRIPTOR_LEN, Keypoints


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
    """Complete graph over a face's keypoints; at least two, so that the
    graph has an edge (fewer raise TooFewKeypoints).

    A graph holds only its keypoint table until it is matched.
    ``descriptors`` is the table's read-only float32 (n, 128) view.
    The arrays a match reads are derived from the table on first use
    and kept: the first nearest-neighbour search derives a private
    float64 128 x n copy of the descriptors (C-contiguous, one
    descriptor per column), ``half_sq_norms`` (half of each
    descriptor's squared norm, the form the matching estimate adds)
    and the largest squared norm, which the matching error bound reads;
    the first edge-stage call derives ``geometry`` (4 x n rows x, y,
    theta and logscale, the natural log of each scale) and
    ``diameter``, the maximum pairwise endpoint distance, computed as
    scipy's ``cdist`` computes it (see ``_diameter``).

    A graph that ``evaluation.generate_scores`` enrolls, of up to
    ``_TRIU_CACHE_MAX_K`` vertices, also holds a read-only table of
    every edge's attributes (see ``_hold_edge_table``); graphs that are
    only built, loaded, matched or identified against hold none.
    """

    vertices: Keypoints = field(hash=False)  # hashed by its ids: tables are unhashable
    subject_id: str
    image_id: str

    def __post_init__(self):
        n = len(self.vertices)
        if n < 2:
            raise TooFewKeypoints(
                f"{self.image_id!r}: got {n} keypoint{'' if n == 1 else 's'}, "
                "need at least 2"
            )

    descriptors = property(lambda self: self.vertices.descriptors)

    @functools.cached_property
    def _by_dim(self) -> np.ndarray:
        # one descriptor per column, so exact distances gather columns
        return self.vertices.descriptors.T.astype(np.float64, order="C")

    @functools.cached_property
    def half_sq_norms(self) -> np.ndarray:
        # in any summation order: the matching bound allows for it
        sq_norms = np.einsum("ij,ij->j", self._by_dim, self._by_dim)
        sq_norms *= 0.5
        return sq_norms

    @functools.cached_property
    def _sq_norm_max(self) -> float:
        # halving then doubling is exact but for a subnormal's lowest bit,
        # far below the spare 2u*P of B, which is used only while P > 2**-980
        return 2.0 * float(self.half_sq_norms.max())

    @functools.cached_property
    def geometry(self) -> np.ndarray:
        # rows x, y, orientation and scale, the last replaced by its log;
        # math.log, not np.log: np.log differs in the last ulp on some
        # float32 scales, which would move scores
        kps = self.vertices
        geometry = kps.rows.T[[0, 1, 3, 2]].astype(np.float64)
        geometry[3] = np.fromiter(map(math.log, kps.scale.tolist()), float, len(kps))
        return geometry

    @functools.cached_property
    def diameter(self) -> float:
        return _diameter(self.geometry[0], self.geometry[1])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


# Vertices per block of rows in _diameter: a face graph of up to 128
# vertices takes one block, and on a larger graph a block's two float64
# temporaries (2 * 128 * n values) stay in cache where a full n x n
# pair would not.
_DIAMETER_ROWS = 128


def _diameter(x: np.ndarray, y: np.ndarray) -> float:
    """The maximum pairwise distance between the points (x, y), as
    ``cdist(xy, xy).max()`` computes it: ``(dx*dx) + (dy*dy)`` per pair
    in float64, then the square root. sqrt is correctly rounded and
    monotonic, so the root of the maximum equals the maximum root.
    Each block of rows meets only the columns from its first row on,
    which covers every unordered pair once.
    """
    largest = 0.0
    for i in range(0, len(x), _DIAMETER_ROWS):
        rows = slice(i, i + _DIAMETER_ROWS)
        dx = np.subtract.outer(x[rows], x[i:])
        dx *= dx
        dy = np.subtract.outer(y[rows], y[i:])
        dy *= dy
        dx += dy
        largest = max(largest, float(dx.max()))
    return math.sqrt(largest)


def build_graph(kps: Keypoints, subject_id: str, image_id: str) -> FaceGraph:
    """Assemble a face graph; FaceGraph rejects fewer than two keypoints."""
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


def edge_component_arrays(g: FaceGraph, idx: np.ndarray) -> np.ndarray:
    """Edge attributes for all edges of the sub-graph on ``idx``.

    Edges follow np.triu_indices order over the given vertex sequence.
    Returns one C-contiguous (3, edges) float64 array whose rows are the
    length normalized by the graph diameter (in [0, 1]), the orientation
    difference wrapped to (-pi, pi], and the log-scale difference; the
    last two flip sign when an edge's endpoints swap. The array is the
    caller's own, even where it is gathered from the graph's edge table.
    """
    idx = np.asarray(idx, dtype=np.intp)
    k = len(idx)
    a, b = _triu_indices(k) if k <= _TRIU_CACHE_MAX_K else np.triu_indices(k, k=1)
    held = g.__dict__.get("_edge_table")
    # the attributes are elementwise, so the table's columns are the
    # computed edges bit for bit
    if held is not None and _ascending(idx):
        offsets, table = held
        cols = offsets[idx][a]
        cols += idx[b]
        return table.take(cols, axis=1)
    # one gather of the sub-graph's geometry, then one per endpoint;
    # take along axis 1 keeps the (4, edges) results C-contiguous
    sub = g.geometry.take(idx, axis=1)
    diff = sub.take(a, axis=1)
    diff -= sub.take(b, axis=1)
    # rows 1-3 of the difference become the attributes in place
    length, dtheta = diff[1], diff[2]
    np.hypot(diff[0], length, out=length)
    if g.diameter > 0.0:
        length /= g.diameter
    dtheta += math.pi
    np.remainder(dtheta, 2.0 * math.pi, out=dtheta)
    dtheta -= math.pi
    dtheta[dtheta == -math.pi] = math.pi
    return diff[1:]


def _ascending(idx: np.ndarray) -> bool:
    """Whether idx is strictly ascending from 0 up, so that every edge of
    its sub-graph is an edge (i, j), i < j, of the whole graph."""
    return len(idx) < 2 or (idx[0] >= 0 and not np.count_nonzero(idx[1:] <= idx[:-1]))


def _hold_edge_table(g: FaceGraph) -> None:
    """Keep on ``g`` the attributes of all its edges, for graphs of up to
    _TRIU_CACHE_MAX_K vertices (at most 195 KB) that hold none yet.

    The table is edge_component_arrays over every vertex in order: a
    read-only (3, n(n-1)/2) float64 array in np.triu_indices order, where
    edge (i, j), i < j, is column offsets[i] + j. Worth its n(n-1)/2
    edges only on a graph that meets many probes, as an enrolled one
    does in the verification protocol.
    """
    n = g.n_vertices
    if n > _TRIU_CACHE_MAX_K or "_edge_table" in g.__dict__:
        return
    i = np.arange(n)
    offsets = i * n - i * (i + 1) // 2 - i - 1
    # a copy, so that the table keeps no row 0 of the difference buffer
    table = edge_component_arrays(g, i).copy()
    offsets.flags.writeable = False
    table.flags.writeable = False
    g.__dict__["_edge_table"] = (offsets, table)


# --- exact nearest neighbours ---
#
# _half_squared estimates half of every squared descriptor distance
# with one matrix product, h = |b|^2/2 - a.b (+ |a|^2/2 where a row's
# own norm matters), from each graph's squared norms. The bound B on
# its error follows Higham, Accuracy and Stability of Numerical
# Algorithms (2nd ed.), section 3.1: with unit roundoff u = 2**-53 and
# gamma_k = k*u / (1 - k*u), a length-n dot product computed in any
# order is within gamma_n of the sum of its terms' magnitudes. Here
# n = 128, and P = max |a|^2 + max |b|^2 over the two graphs.
# - |a|^2/2, |b|^2/2 and a.b each carry at most gamma_n times their
#   terms' magnitudes, and sum |a_k*b_k| <= P/2, so together they are
#   within gamma_n*P; the one or two additions forming h round by at
#   most u*P(1 + gamma_n) each. So h is within gamma_(n+2)*P of the
#   exact half squared distance s/2.
# - cdist squares each rounded difference (a factor (1+u)^3 per term)
#   and adds n nonnegative terms in order (gamma_(n-1)), so its sum is
#   within gamma_(n+2)*s of s; with s <= 2P its half is within
#   gamma_(n+2)*P of s/2. Hence E = 2*gamma_(n+2)*P bounds how far h
#   lies from cdist's half squared sum.
# - Two sums whose square roots round to the same distance differ by
#   at most a factor ((1+u)/(1-u))^2, about 4u*P in halves.
# B = 2*gamma_(n+4)*P, so 2B - 2E exceeds 8u*P. Deciding that a row's
# nearest column is unique (h2 - h1 > 2B), or that a column can hold
# no nearest or second-nearest distance (h > h2 + 2B), therefore leaves
# beyond both estimates' errors about 4u*P for merged square roots,
# under 2u*P for the test's own rounding and 2u*P to spare. Where
# products underflow, each adds an absolute error under 2**-1075 that
# the relative bound misses; B is used only while it is a normal
# number, so P > 2**-980 and the spare 2u*P exceeds the at most 4n such
# errors. Elsewhere (tiny or overflowing norms) nothing is settled and
# every entry is a candidate.
_U = 2.0**-53


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


_BOUND = 2.0 * _gamma(DESCRIPTOR_LEN + 4)
# Lowe's nearest/second-nearest acceptance ratio (IJCV 2004).
_RATIO = 0.8
# For cdist's sums s1 <= s2, d1 < fl(ratio * d2) is certain where
# s1 < ratio^2 * s2 * (1 - gamma_6) (two square roots and one product,
# each a factor 1 + u, squared) and certainly false where
# s1 > ratio^2 * s2 * (1 + gamma_6). The two tests below (accept/reject)
# bound s1/2 by h1 +/- B and s2/2 by h2 -/+ B (B - E covers the rounding
# of h1 +/- B) and round five more times (this constant, ratio * ratio,
# h2 -/+ B and two products), which 1 -/+ gamma_12 absorbs.
_RATIO_MARGIN = _gamma(12)
_TINY = float(np.finfo(np.float64).tiny)


def _exact_distances(
    at: np.ndarray, bt: np.ndarray, rows: np.ndarray | None, cols: np.ndarray
) -> np.ndarray:
    """cdist's distance between column rows[k] of ``at`` and column
    cols[k] of ``bt``, for every k, bit for bit; both are C-contiguous
    (128, n) descriptor arrays. ``rows`` None pairs every column of
    ``at``, in order, without gathering them."""
    cols_b = bt.take(cols, axis=1)
    if rows is None:
        diff = np.subtract(at, cols_b, out=cols_b)
    else:
        diff = at.take(rows, axis=1)
        diff -= cols_b
    diff *= diff
    # A sum over the outer axis of a C-contiguous (128, k) array adds in
    # dimension order. A single column is summed pairwise instead, which
    # can differ from cdist in the last bit; accumulate adds in order.
    if diff.shape[1] == 1:
        return np.sqrt(np.add.accumulate(diff, axis=0)[-1])
    return np.sqrt(np.add.reduce(diff, axis=0))


def _half_squared(g1: FaceGraph, g2: FaceGraph, full: bool) -> tuple[np.ndarray, float]:
    """The (m, n) estimate h of half the squared descriptor distances
    between the vertices of g1 and of g2, and its bound B (see above).
    Without ``full`` each row lacks its own |a|^2/2, which no comparison
    within a row needs."""
    h = g1._by_dim.T @ g2._by_dim
    np.subtract(g2.half_sq_norms, h, out=h)
    if full:
        h += g1.half_sq_norms[:, None]
    bound = _BOUND * (g1._sq_norm_max + g2._sq_norm_max)
    return h, bound if _TINY <= bound < math.inf else math.inf


def _nearest(
    h: np.ndarray,
    bound: float,
    at: np.ndarray,
    bt: np.ndarray,
    ratio: float | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row of ``h``: the column cdist + argmin would pick (the lowest
    index among equal distances) and, given a ratio in (0, 1], whether
    the row passes d1 < ratio * d2, d2 being the row's second smallest
    distance (equal to d1 when the minimum repeats). Both graphs hold at
    least two vertices, so ``h`` has at least two columns.

    ``at`` and ``bt`` hold the rows' and the columns' descriptors; ``h``
    is modified while this runs and restored before it returns. Rows the
    bound leaves open are settled from exact distances of their
    candidate columns.
    """
    rows = np.arange(len(h))
    best = h.argmin(axis=1)
    h1 = h[rows, best]
    # the second smallest estimate, with the best column masked; a NaN
    # left in the row propagates, as an argmin would pick it
    h[rows, best] = math.inf
    h2 = h.min(axis=1)
    h[rows, best] = h1
    if ratio is None:
        is_open = ~(h2 - h1 > 2.0 * bound)
        accepted = None
    else:
        ratio_sq = ratio * ratio
        accepted = h1 + bound < (h2 - bound) * (ratio_sq * (1.0 - _RATIO_MARGIN))
        rejected = h1 - bound > (h2 + bound) * (ratio_sq * (1.0 + _RATIO_MARGIN))
        # A rejected row needs no nearest column, and with ratio <= 1 an
        # accepted row's nearest column is settled: its bounds exclude
        # every other column.
        is_open = ~(accepted | rejected)
    for i in is_open.nonzero()[0].tolist():
        # negated, so that NaN estimates stay candidates
        cand = np.flatnonzero(~(h[i] > h2[i] + 2.0 * bound))
        dist = _exact_distances(at, bt, np.full(len(cand), i), cand)
        j = int(dist.argmin())
        best[i] = cand[j]
        if accepted is not None:
            accepted[i] = dist[j] < ratio * np.partition(dist, 1)[1]
    return best, accepted


def nearest(g1: FaceGraph, g2: FaceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each g1 vertex's nearest g2 vertex by descriptor distance (the
    lowest index among equal distances) and that distance."""
    at, bt = g1._by_dim, g2._by_dim
    h, bound = _half_squared(g1, g2, full=False)
    best = _nearest(h, bound, at, bt)[0]
    return best, _exact_distances(at, bt, None, best)


def mutual_correspondence(g1: FaceGraph, g2: FaceGraph) -> CorrespondenceSet:
    """Pairs kept iff each endpoint is the other's nearest neighbor and
    passes Lowe's ratio test at ``_RATIO``; one-to-one in both
    coordinates by construction."""
    at, bt = g1._by_dim, g2._by_dim
    h, bound = _half_squared(g1, g2, full=True)
    fwd, fwd_ok = _nearest(h, bound, at, bt, _RATIO)
    if not fwd_ok.any():
        # no row passes its ratio test, so no pair is mutual
        return CorrespondenceSet(
            pairs=np.empty((0, 2), dtype=np.intp), distances=np.empty(0)
        )
    bwd, bwd_ok = _nearest(h.T, bound, bt, at, _RATIO)
    rows = np.flatnonzero(fwd_ok & bwd_ok[fwd] & (bwd[fwd] == np.arange(len(fwd))))
    cols = fwd[rows]
    # the (k, 2) transpose of a (2, k) array; cheaper than column_stack
    return CorrespondenceSet(
        pairs=np.array((rows, cols)).T,
        distances=_exact_distances(at, bt, rows, cols),
    )
