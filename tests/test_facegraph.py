"""Face graphs, edge attributes, and correspondence against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsift import facegraph
from graphsift.errors import EmptyGraph, TooFewKeypoints
from graphsift.facegraph import (
    FaceGraph,
    build_graph,
    edge_component_arrays,
    mutual_correspondence,
)
from graphsift.sift import Keypoint

from conftest import edge_attr, random_graph, random_keypoint, wrap_angle


def kp_at(x, y, scale=1.0, orientation=0.0, descriptor=None):
    if descriptor is None:
        descriptor = np.zeros(128, dtype=np.float32)
    return Keypoint(
        x=float(x), y=float(y), scale=float(scale),
        orientation=float(orientation), descriptor=descriptor,
    )


def graph_with_descriptors(rows, subject="s", image="i"):
    """One keypoint per descriptor row, positions on a line."""
    kps = [
        kp_at(float(i), 0.0, descriptor=np.asarray(row, dtype=np.float32))
        for i, row in enumerate(rows)
    ]
    return build_graph(kps, subject, image)


def ratio_oracle(d1_rows, d2_rows, ratio):
    """Nearest/second-nearest acceptance, scalar loops, low-index ties."""
    dist = [
        [math.dist(a, b) for b in d2_rows]
        for a in d1_rows
    ]
    accepted = []
    for i, row in enumerate(dist):
        j = min(range(len(row)), key=lambda c: (row[c], c))
        d1 = row[j]
        d2 = min(
            (row[c] for c in range(len(row)) if c != j), default=math.inf
        )
        if d1 < ratio * d2:
            accepted.append((i, j, d1))
    return accepted


def mutual_oracle(d1_rows, d2_rows, ratio):
    forward = ratio_oracle(d1_rows, d2_rows, ratio)
    backward = {i2: j2 for i2, j2, _ in ratio_oracle(d2_rows, d1_rows, ratio)}
    return [(i, j, d) for i, j, d in forward if backward.get(j) == i]


class TestWrapAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.cos(w) - math.cos(a)) < 1e-9
        assert abs(math.sin(w) - math.sin(a)) < 1e-9

    @pytest.mark.parametrize(
        "a,expected",
        [(0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
         (3 * math.pi, math.pi), (2 * math.pi, 0.0)],
    )
    def test_boundaries(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)


class TestBuildGraph:
    def test_edge_count(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 7, 20):
            g = random_graph(rng, n)
            assert g.n_vertices == n
            assert len(edge_component_arrays(g, np.arange(n))[0]) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_keypoints(self, n):
        rng = np.random.default_rng(1)
        with pytest.raises(TooFewKeypoints):
            build_graph([random_keypoint(rng) for _ in range(n)], "s", "i")

    def test_diameter_hand_value(self):
        g = build_graph(
            [kp_at(0, 0), kp_at(3, 4), kp_at(6, 8)], "s", "i"
        )
        assert g.diameter == 10.0

    def test_no_vertices_rejected(self):
        with pytest.raises(EmptyGraph):
            FaceGraph(vertices=(), subject_id="s", image_id="i")

    def test_vertex_arrays_match_keypoints(self):
        # Log-scales must be math.log to the bit, the value the scalar
        # reference uses; pick the float32 scales where np.log disagrees
        # with it, if this platform has any.
        rng = np.random.default_rng(11)
        scales = rng.uniform(0.5, 8.0, 200_000).astype(np.float32).astype(float)
        exact = np.array([math.log(s) for s in scales])
        picked = scales[np.log(scales) != exact][:30]
        scales = np.concatenate([picked, scales[: 32 - len(picked)]])
        kps = [
            kp_at(rng.uniform(0, 128), rng.uniform(0, 128), scale=s,
                  orientation=rng.uniform(0, 2 * math.pi))
            for s in scales
        ]
        g = build_graph(kps, "s", "i")
        assert g.xy.tolist() == [[kp.x, kp.y] for kp in kps]
        assert g.theta.tolist() == [kp.orientation for kp in kps]
        assert g.logscale.tolist() == [math.log(kp.scale) for kp in kps]
        assert np.array_equal(g.descriptors, np.stack([kp.descriptor for kp in kps]))


class TestEdgeAttr:
    def hand_graph(self):
        return build_graph(
            [
                kp_at(0, 0, scale=1.0, orientation=0.0),
                kp_at(3, 4, scale=2.0, orientation=math.pi / 2),
                kp_at(6, 8, scale=4.0, orientation=3.0),
            ],
            "s", "i",
        )

    def test_hand_values(self):
        g = self.hand_graph()
        e01 = edge_attr(g, 0, 1)
        assert e01.length == pytest.approx(0.5, abs=1e-12)
        assert e01.dtheta == pytest.approx(-math.pi / 2, abs=1e-12)
        assert e01.dlogscale == pytest.approx(-math.log(2.0), abs=1e-12)
        e02 = edge_attr(g, 0, 2)
        assert e02.length == pytest.approx(1.0, abs=1e-12)
        assert e02.dtheta == pytest.approx(-3.0, abs=1e-12)
        assert e02.dlogscale == pytest.approx(-math.log(4.0), abs=1e-12)

    def test_swap_flips_signs(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8)
        for i in range(g.n_vertices):
            for j in range(g.n_vertices):
                if i == j:
                    continue
                fwd, rev = edge_attr(g, i, j), edge_attr(g, j, i)
                assert rev.length == fwd.length
                assert rev.dtheta == pytest.approx(
                    wrap_angle(-fwd.dtheta), abs=1e-12
                )
                assert rev.dlogscale == pytest.approx(-fwd.dlogscale, abs=1e-12)

    def test_length_normalized(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12)
        lengths = [
            edge_attr(g, i, j).length
            for i in range(12) for j in range(i + 1, 12)
        ]
        assert max(lengths) == pytest.approx(1.0, abs=1e-12)
        assert min(lengths) >= 0.0

    def test_self_loop_and_bounds(self):
        g = self.hand_graph()
        with pytest.raises(ValueError):
            edge_attr(g, 1, 1)
        for i, j in [(-1, 0), (0, 3), (5, 1)]:
            with pytest.raises(IndexError):
                edge_attr(g, i, j)

    def test_component_arrays_match_scalar_path(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 10)
        idx = np.array([7, 2, 9, 0, 4])
        length, dtheta, dlog = edge_component_arrays(g, idx)
        a, b = np.triu_indices(len(idx), k=1)
        for k in range(len(a)):
            attr = edge_attr(g, int(idx[a[k]]), int(idx[b[k]]))
            assert length[k] == attr.length
            assert dtheta[k] == attr.dtheta
            assert dlog[k] == attr.dlogscale


def edge_arrays_reference(g, idx):
    """Edge attributes with fresh np.triu_indices on every call."""
    a, b = np.triu_indices(len(idx), k=1)
    a, b = idx[a], idx[b]
    length = np.hypot(g.xy[a, 0] - g.xy[b, 0], g.xy[a, 1] - g.xy[b, 1])
    if g.diameter > 0.0:
        length = length / g.diameter
    dtheta = (g.theta[a] - g.theta[b] + math.pi) % (2.0 * math.pi) - math.pi
    dtheta[dtheta == -math.pi] = math.pi
    return length, dtheta, g.logscale[a] - g.logscale[b]


class TestEdgeIndexCache:
    def test_matches_triu_reference_every_size(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 90)
        for k in range(81):
            idx = rng.permutation(90)[:k]
            got = edge_component_arrays(g, idx)
            want = edge_arrays_reference(g, idx)
            for x, y in zip(got, want):
                assert x.shape == (k * (k - 1) // 2,)
                assert np.ascontiguousarray(x).tobytes() == y.tobytes()

    def test_cached_indices_read_only(self):
        edge_component_arrays(random_graph(np.random.default_rng(12), 6), np.arange(6))
        a, b = facegraph._triu_indices(6)
        for arr in (a, b):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert np.array_equal(a, np.triu_indices(6, k=1)[0])

    def test_cache_size_bounded(self):
        limit = facegraph._TRIU_CACHE_MAX_K
        cache = facegraph._triu_indices
        assert cache.cache_info().maxsize == limit + 1
        rng = np.random.default_rng(13)
        g = random_graph(rng, limit + 3)
        for k in (limit, limit + 1, limit + 3):
            idx = rng.permutation(limit + 3)[:k]
            before = cache.cache_info()
            got = edge_component_arrays(g, idx)
            after = cache.cache_info()
            assert got[0].tobytes() == edge_arrays_reference(g, idx)[0].tobytes()
            # sizes beyond the limit bypass the cache
            lookups = (after.hits + after.misses) - (before.hits + before.misses)
            assert lookups == (1 if k <= limit else 0)


class TestMutualCorrespondence:
    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r1 = rng.random((rng.integers(2, 12), 128))
            r2 = rng.random((rng.integers(2, 12), 128))
            g1, g2 = graph_with_descriptors(r1), graph_with_descriptors(r2)
            got = mutual_correspondence(g1, g2, ratio=0.97)
            want = mutual_oracle(
                r1.astype(np.float32), r2.astype(np.float32), 0.97
            )
            assert got.pairs.tolist() == [[i, j] for i, j, _ in want]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                 min_size=1, max_size=30),
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                 min_size=1, max_size=30),
        st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_matches_oracle_with_ties(self, rows1, rows2, ratio):
        # Descriptors on a {0, 1, 2}^3 grid: distances are square roots
        # of small integers, so tied distances and duplicate rows, where
        # an array mutual check could part from the loop, are common.
        # One-row sides take the no-second-neighbour path.
        def graph(rows):
            kps = [kp_at(i, 0.0, descriptor=row) for i, row in enumerate(rows)]
            return FaceGraph(vertices=tuple(kps), subject_id="s", image_id="i")

        r1 = np.pad(np.array(rows1, dtype=np.float32), ((0, 0), (0, 125)))
        r2 = np.pad(np.array(rows2, dtype=np.float32), ((0, 0), (0, 125)))
        cs = mutual_correspondence(graph(r1), graph(r2), ratio)
        want = mutual_oracle(r1, r2, ratio)
        assert cs.pairs.shape == (len(want), 2)
        assert cs.pairs.tolist() == [[i, j] for i, j, _ in want]
        assert cs.distances.tolist() == [d for _, _, d in want]

    def test_subset_of_directional_and_injective(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(3, 15)))
            g2 = random_graph(rng, int(rng.integers(3, 15)))
            mutual = mutual_correspondence(g1, g2, ratio=0.99)
            directional = ratio_oracle(g1.descriptors, g2.descriptors, 0.99)
            dir_pairs = {(i, j) for i, j, _ in directional}
            assert set(map(tuple, mutual.pairs.tolist())) <= dir_pairs
            for col in mutual.pairs.T:
                assert len(set(col.tolist())) == len(mutual)
            assert len(mutual) <= min(g1.n_vertices, g2.n_vertices)

    def test_single_target_always_accepted(self):
        # A one-vertex probe leaves every gallery row without a second
        # distance, so the forward pass accepts each row; the reverse
        # pass then keeps only the exact copy.
        rng = np.random.default_rng(6)
        g1 = random_graph(rng, 5)
        single = FaceGraph(vertices=(g1.vertices[3],), subject_id="s", image_id="i")
        cs = mutual_correspondence(g1, single)
        assert cs.pairs.tolist() == [[3, 0]]
        assert cs.distances.tolist() == [0.0]

    def test_duplicate_targets_defeat_ratio_test(self):
        rng = np.random.default_rng(60)
        g1 = random_graph(rng, 5)
        twins = graph_with_descriptors(
            np.tile(rng.random(128, dtype=np.float32), (2, 1))
        )
        # Second-nearest distance equals nearest, so nothing passes.
        assert len(mutual_correspondence(g1, twins)) == 0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(9)
        g1, g2 = random_graph(rng, 9), random_graph(rng, 11)
        fwd = mutual_correspondence(g1, g2, ratio=0.95)
        rev = mutual_correspondence(g2, g1, ratio=0.95)
        assert fwd.pairs.tolist() == sorted(rev.pairs[:, ::-1].tolist())
        order = np.argsort(rev.pairs[:, 1])
        assert fwd.distances.tolist() == rev.distances[order].tolist()

    def test_self_match_is_identity_with_zero_distance(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 8)
        cs = mutual_correspondence(g, g, ratio=0.8)
        assert cs.pairs.tolist() == [[i, i] for i in range(8)]
        assert cs.distances.tolist() == [0.0] * 8
