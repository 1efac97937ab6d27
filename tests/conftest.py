"""Shared fixtures and references.

The seeded corpus and its extracted graphs: extraction over the full
corpus is the expensive step, so it happens once per session; tests
treat the resulting graphs as read-only. The scalar edge-attribute
reference (``edge_attr``) is the oracle for the library's vectorized
``edge_component_arrays``, and ``derived_oracle`` the per-keypoint
derivation of a graph's arrays that ``FaceGraph`` does on whole columns,
with scipy's ``cdist`` as the reference for the diameter (its
descriptors are the private float64 array ``_by_dim`` the matcher reads,
which the dense oracles below read too);
``diameter_edge_tables`` holds the inputs at the diameter's edges, and
``with_digest`` forges a saved gallery from another detector, which no
``GalleryDb`` can hold.
``dense_nearest`` and ``dense_mutual`` are the dense distance-matrix
path (one ``cdist`` per pair) that the library's exact nearest-neighbour
search must reproduce bit for bit, and ``descriptor_pairs`` draws the
inputs that stress it.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) runs more
examples with no deadline; without the flag the defaults apply.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from scipy.spatial.distance import cdist

from graphsift.corpus import generate_corpus, read_manifest
from graphsift.facegraph import FaceGraph, build_graph
from graphsift.imageio import histogram_equalize, load_image
from graphsift.sift import ROW_LEN, Keypoints, extract_features

settings.register_profile("ci", max_examples=1000, deadline=None)

CORPUS_SEED = 42
CORPUS_SUBJECTS = 10
CORPUS_IMAGES = 4


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(
        out,
        seed=CORPUS_SEED,
        n_subjects=CORPUS_SUBJECTS,
        images_per_subject=CORPUS_IMAGES,
    )
    return out


@pytest.fixture(scope="session")
def corpus_rows(corpus_dir):
    return read_manifest(corpus_dir / "manifest.csv")


@pytest.fixture(scope="session")
def corpus_graphs(corpus_rows):
    """(subject_id, image_id) -> FaceGraph for every corpus image."""
    graphs = {}
    for row in corpus_rows:
        img = histogram_equalize(load_image(row.image_path))
        graphs[(row.subject_id, row.image_id)] = build_graph(
            extract_features(img), row.subject_id, row.image_id
        )
    return graphs


def kp_at(x, y, scale=1.0, orientation=0.0, descriptor=None) -> np.ndarray:
    """One keypoint-table row; the descriptor defaults to zeros."""
    row = np.zeros(ROW_LEN, dtype=np.float32)
    row[:4] = (x, y, scale, orientation)
    if descriptor is not None:
        row[4:] = descriptor
    return row


def table(rows) -> Keypoints:
    """Keypoints from a sequence of rows (possibly empty)."""
    return Keypoints(np.reshape(np.asarray(rows, dtype=np.float32), (-1, ROW_LEN)))


def random_keypoint(rng: np.random.Generator) -> np.ndarray:
    """A structurally valid keypoint row."""
    return kp_at(
        rng.uniform(0.0, 128.0),
        rng.uniform(0.0, 128.0),
        rng.uniform(0.5, 8.0),
        rng.uniform(0.0, 2.0 * np.pi),
        rng.random(128, dtype=np.float32),
    )


def random_graph(rng: np.random.Generator, n: int, subject="s", image="i"):
    return build_graph(table([random_keypoint(rng) for _ in range(n)]), subject, image)


def with_digest(data: bytes, digest: int, intact: bool = True) -> bytes:
    """A saved gallery's bytes with ``digest`` as the header's detector
    digest (bytes 8 to 16), ending in the CRC-32 of what precedes it, or,
    when not ``intact``, in that CRC with its lowest bit flipped."""
    payload = data[:8] + struct.pack("<Q", digest) + data[16:-4]
    crc = zlib.crc32(payload)
    if not intact:
        crc ^= 1
    return payload + struct.pack("<I", crc)


def derived_oracle(kps: Keypoints) -> dict:
    """A graph's derived arrays computed one keypoint at a time from
    Python floats, with list comprehensions; ``_by_dim`` holds one
    descriptor per column."""
    records = kps.rows.tolist()
    xy = np.array([[r[0], r[1]] for r in records])
    return {
        "_by_dim": np.column_stack(
            [np.array(r[4:], dtype=np.float32) for r in records]
        ).astype(np.float64),
        "geometry": np.array([
            [r[0] for r in records],
            [r[1] for r in records],
            [r[3] for r in records],
            [math.log(r[2]) for r in records],
        ]),
        "diameter": float(cdist(xy, xy).max()),
    }


def diameter_edge_tables() -> list[Keypoints]:
    """Tables at the edges of the diameter: coincident vertices (0.0, so
    edge lengths are left undivided), exactly two vertices, and float32
    coordinates near 1e6, where squared coordinates reach 1e12. The last
    table's seed makes ``np.hypot`` give a diameter one ulp off
    ``cdist``'s, so a diameter computed another way shows here."""
    rng = np.random.default_rng(34)
    near_1e6 = 1e6 + rng.uniform(-40.0, 40.0, (9, 2))
    return [
        table([kp_at(5.0, 7.0)] * 3),
        table([kp_at(0.0, 0.0), kp_at(3.0, 4.0)]),
        table([kp_at(x, y) for x, y in near_1e6]),
    ]


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class EdgeAttr:
    """Geometry of one edge: length is normalized by the graph diameter
    so it lands in [0, 1]; dtheta is wrapped to (-pi, pi]."""

    length: float
    dtheta: float
    dlogscale: float


def edge_attr(g, i: int, j: int) -> EdgeAttr:
    """Attributes of the edge between vertices i and j (in that order:
    dtheta and dlogscale flip sign when the endpoints swap), computed
    one scalar at a time from the keypoints' Python floats."""
    n = g.n_vertices
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"vertex index out of range for {n}-vertex graph")
    if i == j:
        raise ValueError(f"vertex {i} paired with itself")
    ax, ay, a_scale, a_theta = g.vertices.rows[i, :4].tolist()
    bx, by, b_scale, b_theta = g.vertices.rows[j, :4].tolist()
    length = math.hypot(ax - bx, ay - by)
    if g.diameter > 0.0:
        length /= g.diameter
    return EdgeAttr(
        length=length,
        dtheta=wrap_angle(a_theta - b_theta),
        dlogscale=math.log(a_scale) - math.log(b_scale),
    )


def descriptor_graph(rows, subject="s", image="i") -> FaceGraph:
    """A graph with one vertex per descriptor row, positions on a line.

    Rows float32 holds exactly go through the keypoint table. Others,
    such as float64 rows scaled by 1e-150, cannot: the graph is built
    with zero descriptors and the matching arrays it would derive are
    set in their place, the only way such values reach the matching
    core. Oracles read them from ``_by_dim``, as the matcher does.
    """
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        exact = bool(np.all(rows.astype(np.float32).astype(np.float64) == rows))
    kps = table([
        kp_at(i, 0.0, descriptor=row if exact else None) for i, row in enumerate(rows)
    ])
    g = FaceGraph(vertices=kps, subject_id=subject, image_id=image)
    if not exact:
        by_dim = np.ascontiguousarray(rows.T)
        with np.errstate(over="ignore"):
            sq_norms = (by_dim * by_dim).sum(axis=0)
        object.__setattr__(g, "_by_dim", by_dim)
        object.__setattr__(g, "half_sq_norms", 0.5 * sq_norms)
        object.__setattr__(g, "_sq_norm_max", float(sq_norms.max()))
    return g


def dense_ratio_accepted(dist: np.ndarray, ratio: float):
    """Row-wise nearest neighbor (argmin, so the lowest column among
    equal distances) and whether it passes d1 < ratio * d2, d2 being the
    second value np.partition gives (d1 again for a repeated minimum)."""
    best = dist.argmin(axis=1)
    d1 = dist[np.arange(len(dist)), best]
    d2 = np.partition(dist, 1, axis=1)[:, 1]
    return best, d1 < ratio * d2


def dense_nearest(g1, g2):
    """Each g1 vertex's nearest g2 vertex and distance from one cdist."""
    dist = cdist(g1._by_dim.T, g2._by_dim.T)
    best = dist.argmin(axis=1)
    return best, dist[np.arange(len(dist)), best]


def dense_mutual(g1, g2, ratio):
    """(pairs, distances) of mutual ratio-accepted nearest neighbours
    from one cdist, as mutual_correspondence returns them."""
    dist = cdist(g1._by_dim.T, g2._by_dim.T)
    fwd, fwd_ok = dense_ratio_accepted(dist, ratio)
    bwd, bwd_ok = dense_ratio_accepted(dist.T, ratio)
    rows = np.flatnonzero(fwd_ok & bwd_ok[fwd] & (bwd[fwd] == np.arange(len(fwd))))
    cols = fwd[rows]
    return np.array((rows, cols)).T, dist[rows, cols]


def _unit_rows(rng, n):
    """n random descriptor-like rows: nonnegative, unit norm, float32."""
    x = rng.random((n, 128))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def _nudged(rng, rows, dtype):
    """Copies of rows with one to three entries moved by one ulp of
    dtype: distances between copies are tiny and nearly tied, which the
    matrix-product estimate cannot order."""
    out = rows.astype(dtype)
    for row in out:
        cols = rng.choice(128, size=int(rng.integers(1, 4)), replace=False)
        toward = np.where(rng.random(len(cols)) < 0.5, -np.inf, np.inf).astype(dtype)
        row[cols] = np.nextafter(row[cols], toward)
    return out.astype(np.float64)


@st.composite
def descriptor_pairs(draw, max_rows=12):
    """(rows1, rows2) float64 descriptor arrays for one graph pair.

    Families: small integers on a {0, 1, 2}^3 grid (exact ties and
    duplicate rows), unit rows with one-ulp copies in float32 or float64
    (near ties), float64 copies of one row against copies of another
    (near ties at a distance of about 1, where ratio tests are decided),
    the one-ulp copies scaled by 1e-150, 1e150 or 1e160 (the estimate's
    error bound underflows, is huge, or overflows along with the squared
    distances), and a graph against itself (the exact-0 self match).
    Each side has at least two rows, the fewest a graph holds.
    """
    family = draw(st.sampled_from(
        ["grid", "ulp32", "ulp64", "far", "tiny", "huge", "vast", "self"]
    ))
    n1, n2 = draw(st.integers(2, max_rows)), draw(st.integers(2, max_rows))
    if family == "grid":
        grid = st.lists(st.integers(0, 2), min_size=3, max_size=3)
        rows1, rows2 = (
            np.pad(np.array(draw(st.lists(grid, min_size=n, max_size=n)), dtype=float),
                   ((0, 0), (0, 125)))
            for n in (n1, n2)
        )
        return rows1, rows2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "far":
        one, other = _unit_rows(rng, 2)
        return _nudged(rng, np.tile(one, (n1, 1)), np.float64), _nudged(
            rng, np.tile(other, (n2, 1)), np.float64
        )
    base = _unit_rows(rng, int(rng.integers(1, 4)))
    dtype = np.float32 if family in ("ulp32", "self") else np.float64

    def side(n):
        return _nudged(rng, base[rng.integers(0, len(base), n)], dtype)

    rows1, rows2 = side(n1), side(n2)
    if family == "self":
        return rows1, rows1.copy()
    scale = {"tiny": 1e-150, "huge": 1e150, "vast": 1e160}.get(family, 1.0)
    return rows1 * scale, rows2 * scale
