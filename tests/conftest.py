"""Shared fixtures and references.

The seeded corpus and its extracted graphs: extraction over the full
corpus is the expensive step, so it happens once per session; tests
treat the resulting graphs as read-only. The scalar edge-attribute
reference (``edge_attr``) is the oracle for the library's vectorized
``edge_component_arrays``, and ``derived_oracle`` the per-keypoint
derivation of a graph's arrays that ``FaceGraph`` does on whole columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from graphsift.corpus import generate_corpus, read_manifest
from graphsift.facegraph import build_graph
from graphsift.imageio import histogram_equalize, load_image
from graphsift.sift import ROW_LEN, Keypoints, extract_features

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


def derived_oracle(kps: Keypoints) -> dict:
    """A graph's derived arrays computed one keypoint at a time from
    Python floats, with list comprehensions."""
    records = kps.rows.tolist()
    xy = np.array([[r[0], r[1]] for r in records])
    return {
        "descriptors": np.stack(
            [np.array(r[4:], dtype=np.float32) for r in records]
        ).astype(np.float64),
        "xy": xy,
        "theta": np.array([r[3] for r in records]),
        "logscale": np.array([math.log(r[2]) for r in records]),
        "diameter": float(cdist(xy, xy).max()),
    }


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
