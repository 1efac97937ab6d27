"""Face graphs, edge attributes, and correspondence against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsift import facegraph
from graphsift.errors import NonFiniteKeypoint, NonPositiveScale, TooFewKeypoints
from graphsift.facegraph import (
    FaceGraph,
    build_graph,
    edge_component_arrays,
    mutual_correspondence,
)
from graphsift.evaluation import generate_scores, run_protocol
from graphsift.matcher import Constraint, identify, match
from graphsift.sift import DESCRIPTOR_LEN
from graphsift.store import GalleryDb, load, save

from conftest import (
    dense_mutual,
    derived_oracle,
    descriptor_graph,
    descriptor_pairs,
    diameter_edge_tables,
    edge_attr,
    kp_at,
    random_graph,
    random_keypoint,
    table,
    wrap_angle,
)


def graph_with_descriptors(rows, subject="s", image="i"):
    """One keypoint per descriptor row, positions on a line."""
    kps = [kp_at(i, 0.0, descriptor=row) for i, row in enumerate(rows)]
    return build_graph(table(kps), subject, image)


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
        d2 = min(row[c] for c in range(len(row)) if c != j)
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
        # a graph needs an edge; FaceGraph owns the rule, build_graph
        # reaches it
        got = {0: "got 0 keypoints,", 1: "got 1 keypoint,"}[n]
        rng = np.random.default_rng(1)
        kps = table([random_keypoint(rng) for _ in range(n)])
        with pytest.raises(TooFewKeypoints, match=got):
            build_graph(kps, "s", "i")
        with pytest.raises(TooFewKeypoints, match=got):
            FaceGraph(vertices=kps, subject_id="s", image_id="i")

    def test_equal_graphs_hash_equal(self):
        # a keypoint table is unhashable, so the hash reads the ids only;
        # equal graphs share them
        rng = np.random.default_rng(2)
        rows = np.stack([random_keypoint(rng) for _ in range(4)])
        g1, g2 = (build_graph(table(rows), "s", "i") for _ in range(2))
        assert g1 == g2 and g1 is not g2
        assert hash(g1) == hash(g2)
        assert len({g1, g2}) == 1

    def test_diameter_hand_value(self):
        g = build_graph(
            table([kp_at(0, 0), kp_at(3, 4), kp_at(6, 8)]), "s", "i"
        )
        assert g.diameter == 10.0

    def test_no_vertices_rejected(self):
        with pytest.raises(TooFewKeypoints):
            FaceGraph(vertices=table([]), subject_id="s", image_id="i")

    @pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 131])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_keypoint_rejected(self, column, value):
        # a NaN x once gave a graph of diameter NaN, and an infinite
        # descriptor a bare ValueError at weighting time
        rows = np.stack([random_keypoint(np.random.default_rng(s)) for s in range(6)])
        rows[3, column] = value
        with pytest.raises(NonFiniteKeypoint, match="row 3"):
            table(rows)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0])
    def test_non_positive_scale_rejected(self, scale):
        # a graph takes the log of every scale: 0 or -1 once raised a
        # bare "math domain error" from build_graph
        rows = np.stack([random_keypoint(np.random.default_rng(s)) for s in range(6)])
        rows[2, 2] = scale
        with pytest.raises(NonPositiveScale, match="row 2"):
            build_graph(table(rows), "s", "i")

    def test_vertex_arrays_match_keypoints(self):
        # Log-scales must be math.log to the bit, the value the scalar
        # reference uses; pick the float32 scales where np.log disagrees
        # with it, if this platform has any.
        rng = np.random.default_rng(11)
        scales = rng.uniform(0.5, 8.0, 200_000).astype(np.float32).astype(float)
        exact = np.array([math.log(s) for s in scales])
        picked = scales[np.log(scales) != exact][:30]
        scales = np.concatenate([picked, scales[: 32 - len(picked)]])
        kps = table([
            kp_at(rng.uniform(0, 128), rng.uniform(0, 128), scale=s,
                  orientation=rng.uniform(0, 2 * math.pi),
                  descriptor=rng.random(128, dtype=np.float32))
            for s in scales
        ])
        g = build_graph(kps, "s", "i")
        x, y, theta, logscale = g.geometry
        assert np.column_stack([x, y]).tolist() == kps.rows[:, :2].tolist()
        assert theta.tolist() == kps.rows[:, 3].tolist()
        assert logscale.tolist() == [math.log(s) for s in kps.scale.tolist()]
        assert np.array_equal(g.descriptors, kps.descriptors)
        for name, want in derived_oracle(kps).items():
            assert np.asarray(getattr(g, name)).tobytes() == np.asarray(want).tobytes()
        edge_graphs = [build_graph(t, "s", "i") for t in diameter_edge_tables()]
        for edge_g in edge_graphs:
            for name, want in derived_oracle(edge_g.vertices).items():
                got = np.asarray(getattr(edge_g, name))
                assert got.tobytes() == np.asarray(want).tobytes(), name
            edges = edge_component_arrays(edge_g, np.arange(edge_g.n_vertices))
            assert np.isfinite(edges).all()
        assert edge_graphs[0].diameter == 0.0
        # one descriptor per column of a C-contiguous array; x, y,
        # theta and logscale are the rows of one array
        assert g._by_dim.flags.c_contiguous
        assert g._by_dim.shape == (DESCRIPTOR_LEN, len(kps))
        assert g.geometry.shape == (4, len(kps))
        # any summation order is within gamma_128 (about 128 ulp) of
        # the exact squared norm, as the matching bound assumes
        exact = [math.fsum(v * v for v in d) for d in g._by_dim.T.tolist()]
        np.testing.assert_allclose(2.0 * g.half_sq_norms, exact, rtol=128 * 2.0**-53)
        # the bound reads the largest of the squared norms halved above
        assert g._sq_norm_max == float((2.0 * g.half_sq_norms).max())


# What a graph derives on first use: the nearest-neighbour search's
# arrays, then the edge stage's.
SEARCH_ARRAYS = ("_by_dim", "half_sq_norms", "_sq_norm_max")
EDGE_ARRAYS = ("geometry", "diameter")
TABLE_FIELDS = {"vertices", "subject_id", "image_id"}
# held only by graphs the verification protocol enrolls
EDGE_TABLE = "_edge_table"


def eager_reference(kps) -> dict:
    """The derived arrays as FaceGraph built them at construction,
    before it derived them lazily, with the same expressions."""
    by_dim = kps.descriptors.T.astype(np.float64, order="C")
    geometry = kps.rows.T[[0, 1, 3, 2]].astype(np.float64)
    geometry[3] = np.fromiter(map(math.log, kps.scale.tolist()), float, len(kps))
    sq_norms = np.einsum("ij,ij->j", by_dim, by_dim)
    sq_norm_max = float(sq_norms.max())
    sq_norms *= 0.5
    return {
        "_by_dim": by_dim,
        "half_sq_norms": sq_norms,
        "_sq_norm_max": sq_norm_max,
        "geometry": geometry,
        "diameter": facegraph._diameter(geometry[0], geometry[1]),
    }


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


class TestLazyArrays:
    @pytest.fixture
    def fresh_graphs(self, corpus_graphs):
        """The seed-42 corpus graphs rebuilt from their tables, so that
        no other test's matches have derived anything on them."""
        return [build_graph(g.vertices, s, i) for (s, i), g in corpus_graphs.items()]

    def match_all(self, graphs):
        # each graph as gallery and as probe, under both constraints;
        # corpus neighbours are views of one subject, so edges form
        for g, h in zip(graphs, graphs[1:] + graphs[:1]):
            for constraint in Constraint:
                match(g, h, constraint)
                match(h, g, constraint)

    def assert_derived_like_parent(self, graphs):
        for g in graphs:
            for name, want in eager_reference(g.vertices).items():
                assert_bit_identical(g.__dict__[name], want)

    def test_build_and_load_derive_nothing(self, fresh_graphs, tmp_path):
        path = tmp_path / "g.db"
        save(GalleryDb(entries=tuple(fresh_graphs)), path)
        for g in fresh_graphs + list(load(path).entries):
            assert set(g.__dict__) == TABLE_FIELDS

    def test_each_stage_derives_its_own(self, fresh_graphs):
        g, h = fresh_graphs[:2]
        mutual_correspondence(g, h)
        assert set(g.__dict__) == set(h.__dict__) == TABLE_FIELDS | set(SEARCH_ARRAYS)
        edge_component_arrays(g, np.arange(3))
        assert set(g.__dict__) == TABLE_FIELDS | set(SEARCH_ARRAYS + EDGE_ARRAYS)

    def test_matched_arrays_equal_eager_reference(self, fresh_graphs, tmp_path):
        self.match_all(fresh_graphs)
        self.assert_derived_like_parent(fresh_graphs)
        path = tmp_path / "g.db"
        save(GalleryDb(entries=tuple(fresh_graphs)), path)
        loaded = list(load(path).entries)
        self.match_all(loaded)
        self.assert_derived_like_parent(loaded)
        for g, h in zip(fresh_graphs, loaded):
            for name in SEARCH_ARRAYS + EDGE_ARRAYS:
                assert_bit_identical(h.__dict__[name], g.__dict__[name])

    def test_match_and_identify_derive_no_edge_table(self, fresh_graphs, tmp_path):
        self.match_all(fresh_graphs)
        path = tmp_path / "g.db"
        save(GalleryDb(entries=tuple(fresh_graphs)), path)
        loaded = list(load(path).entries)
        for constraint in Constraint:
            identify(fresh_graphs[0], fresh_graphs[1:], constraint)
            identify(loaded[0], loaded[1:], constraint)
        for g in fresh_graphs + loaded:
            assert EDGE_TABLE not in g.__dict__

    def test_protocol_tables_every_enrolled_graph_and_no_probe(
        self, fresh_graphs, corpus_rows
    ):
        role = {(r.subject_id, r.image_id): r.role for r in corpus_rows}
        groups = {r.subject_id: r.group for r in corpus_rows}
        split = {"train": [], "test": []}
        for g in fresh_graphs:
            split[role[g.subject_id, g.image_id]].append(g)
        gallery, probes = split["train"], split["test"]
        assert gallery and probes
        run_protocol(gallery, probes, groups, Constraint.GIBMC)
        for g in gallery:
            _, edges = g.__dict__[EDGE_TABLE]
            assert edges.shape == (3, g.n_vertices * (g.n_vertices - 1) // 2)
        for g in probes:
            assert EDGE_TABLE not in g.__dict__
        # a second run keeps the tables it finds
        held = [g.__dict__[EDGE_TABLE] for g in gallery]
        run_protocol(gallery, probes, groups, Constraint.RPBMC)
        assert all(g.__dict__[EDGE_TABLE] is t for g, t in zip(gallery, held))

    def test_second_match_reuses_the_arrays(self, fresh_graphs):
        g, h = fresh_graphs[:2]
        first = match(g, h, Constraint.GIBMC)
        held = {name: g.__dict__[name] for name in SEARCH_ARRAYS + EDGE_ARRAYS}
        assert match(g, h, Constraint.GIBMC) == first
        for name, value in held.items():
            assert g.__dict__[name] is value, name

    def test_descriptors_are_a_read_only_table_view(self, fresh_graphs):
        g = fresh_graphs[0]
        d = g.descriptors
        assert (d.dtype, d.shape) == (np.float32, (g.n_vertices, DESCRIPTOR_LEN))
        assert not d.flags.writeable
        assert np.shares_memory(d, g.vertices.rows)
        assert set(g.__dict__) == TABLE_FIELDS


class TestEdgeAttr:
    def hand_graph(self):
        return build_graph(
            table([
                kp_at(0, 0, scale=1.0, orientation=0.0),
                kp_at(3, 4, scale=2.0, orientation=math.pi / 2),
                kp_at(6, 8, scale=4.0, orientation=3.0),
            ]),
            "s", "i",
        )

    def test_hand_values(self):
        g = self.hand_graph()
        e01 = edge_attr(g, 0, 1)
        assert e01.length == pytest.approx(0.5, abs=1e-12)
        # orientations are stored as float32
        assert e01.dtheta == pytest.approx(-float(np.float32(math.pi / 2)), abs=1e-12)
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

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_component_arrays_stacked(self, k):
        # one C-contiguous (3, edges) array, so the edge stage can
        # difference and reduce it whole
        g = random_graph(np.random.default_rng(5), 6)
        out = edge_component_arrays(g, np.arange(k))
        assert out.shape == (3, k * (k - 1) // 2)
        assert out.dtype == np.float64 and out.flags.c_contiguous


def edge_arrays_reference(g, idx):
    """Edge attributes with fresh np.triu_indices on every call."""
    a, b = np.triu_indices(len(idx), k=1)
    a, b = idx[a], idx[b]
    x, y, theta, logscale = g.geometry
    length = np.hypot(x[a] - x[b], y[a] - y[b])
    if g.diameter > 0.0:
        length = length / g.diameter
    dtheta = (theta[a] - theta[b] + math.pi) % (2.0 * math.pi) - math.pi
    dtheta[dtheta == -math.pi] = math.pi
    return length, dtheta, logscale[a] - logscale[b]


def held_twin(g):
    """A graph on g's keypoints that holds its edge table, with its
    geometry then replaced by NaN: only a gather from the edge table
    gives finite edges, and the computed path gives NaN."""
    twin = build_graph(g.vertices, g.subject_id, g.image_id)
    facegraph._hold_edge_table(twin)
    twin.__dict__["geometry"] = np.full_like(twin.geometry, math.nan)
    return twin


def assert_edges_equal_reference(got, g, idx):
    want = edge_arrays_reference(g, np.asarray(idx, dtype=np.intp))
    assert (got.dtype, got.shape) == (np.float64, (3, len(want[0])))
    assert got.flags.c_contiguous and got.flags.writeable
    for row, want_row in zip(got, want):
        assert row.tobytes() == want_row.tobytes()


class TestEdgeTable:
    def test_gather_equals_reference_every_size(self):
        rng = np.random.default_rng(20)
        for n in range(2, facegraph._TRIU_CACHE_MAX_K + 1):
            g = random_graph(rng, n)
            held = held_twin(g)
            subsets = [np.arange(k) for k in (0, 1, 2, n)]
            subsets += [
                np.sort(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
                for _ in range(6)
            ]
            for idx in subsets:
                assert_edges_equal_reference(edge_component_arrays(held, idx), g, idx)

    def test_gather_equals_reference_at_the_diameter_edges(self):
        rng = np.random.default_rng(21)
        for kps in diameter_edge_tables():
            g = build_graph(kps, "s", "i")
            held = held_twin(g)
            n = g.n_vertices
            for idx in [np.arange(k) for k in (0, 1, 2, n)] + [np.array([0, n - 1])]:
                assert_edges_equal_reference(edge_component_arrays(held, idx), g, idx)
            for _ in range(5):
                idx = np.sort(rng.choice(n, size=rng.integers(0, n + 1), replace=False))
                assert_edges_equal_reference(edge_component_arrays(held, idx), g, idx)
        assert build_graph(diameter_edge_tables()[0], "s", "i").diameter == 0.0

    def test_table_layout(self):
        g = random_graph(np.random.default_rng(22), 9)
        facegraph._hold_edge_table(g)
        offsets, edges = g.__dict__[EDGE_TABLE]
        assert edges.tobytes() == edge_component_arrays(
            build_graph(g.vertices, "s", "i"), np.arange(9)
        ).tobytes()
        # edge (i, j), i < j, is column offsets[i] + j
        for i in range(9):
            for j in range(i + 1, 9):
                pair = edge_arrays_reference(g, np.array([i, j]))
                assert edges[:, offsets[i] + j].tolist() == [v[0] for v in pair]

    def test_gathered_array_is_the_callers_own(self):
        g = random_graph(np.random.default_rng(23), 12)
        facegraph._hold_edge_table(g)
        offsets, edges = g.__dict__[EDGE_TABLE]
        kept = edges.copy()
        for arr in (offsets, edges):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0
        idx = np.array([1, 4, 7, 11])
        got = edge_component_arrays(g, idx)
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, edges)
        # the edge stage subtracts into the gallery side's array
        got -= 1.0
        assert edges.tobytes() == kept.tobytes()
        assert_edges_equal_reference(edge_component_arrays(g, idx), g, idx)

    @pytest.mark.parametrize(
        "idx",
        [[3, 1, 5], [2, 2, 6], [0, 5, 5], [-3, -1], [-1, 0, 4], [7, 6, 5, 4, 3]],
        ids=["unordered", "repeat-first", "repeat-last", "negative",
             "negative-first", "descending"],
    )
    def test_other_sequences_are_computed(self, idx):
        g = random_graph(np.random.default_rng(24), 8)
        facegraph._hold_edge_table(g)
        assert_edges_equal_reference(edge_component_arrays(g, idx), g, idx)

    def test_held_only_up_to_the_index_cache_limit(self):
        limit = facegraph._TRIU_CACHE_MAX_K
        rng = np.random.default_rng(25)
        big = random_graph(rng, limit + 1, "a", "big")
        # the probe repeats most of the gallery's vertices, so the pairing
        # keeps enough pairs to form edges
        probe = build_graph(table(big.vertices.rows[5:110]), "a", "probe")
        records = generate_scores([big], [probe], {"a": "G1"}, Constraint.GIBMC)
        assert EDGE_TABLE not in big.__dict__
        fresh = build_graph(big.vertices, "a", "big")
        score = match(fresh, build_graph(probe.vertices, "a", "probe"), Constraint.GIBMC)
        assert score.n_edge_pairs > 0
        assert records[0].score == score.combined
        small = random_graph(rng, limit, "a", "small")
        generate_scores([small], [probe], {"a": "G1"}, Constraint.GIBMC)
        assert EDGE_TABLE in small.__dict__


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
    def test_matches_oracle_random(self, monkeypatch):
        monkeypatch.setattr(facegraph, "_RATIO", 0.97)
        rng = np.random.default_rng(7)
        for _ in range(20):
            r1 = rng.random((rng.integers(2, 12), 128))
            r2 = rng.random((rng.integers(2, 12), 128))
            g1, g2 = graph_with_descriptors(r1), graph_with_descriptors(r2)
            got = mutual_correspondence(g1, g2)
            want = mutual_oracle(
                r1.astype(np.float32), r2.astype(np.float32), 0.97
            )
            assert got.pairs.tolist() == [[i, j] for i, j, _ in want]

    @settings(max_examples=200, deadline=None)
    @given(
        descriptor_pairs(max_rows=30),
        st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_matches_oracle_with_ties(self, rows, ratio):
        # Exact ties and duplicate rows (the {0, 1, 2}^3 grid, where an
        # array mutual check could part from the loop), near ties the
        # matrix-product estimate cannot order (one-ulp copies), bounds
        # that underflow or overflow, and the exact-0 self match: pairs
        # and distances must be the dense path's to the bit, and the
        # pairing one-to-one.
        g1, g2 = (descriptor_graph(r) for r in rows)
        # a @given test cannot take the function-scoped monkeypatch
        # fixture; only the 1e160 rows overflow, in both paths alike
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(facegraph, "_RATIO", ratio)
            cs = mutual_correspondence(g1, g2)
            want_pairs, want_distances = dense_mutual(g1, g2, ratio)
        assert cs.pairs.shape == want_pairs.shape
        assert cs.pairs.tobytes() == want_pairs.tobytes()
        assert cs.distances.tobytes() == want_distances.tobytes()
        for col in cs.pairs.T:
            assert len(np.unique(col)) == len(cs)
        if all(np.isin(r, (0.0, 1.0, 2.0)).all() for r in rows):
            # the grid: math.dist is exact, so the loop agrees too
            want = mutual_oracle(*rows, ratio)
            assert cs.pairs.tolist() == [[i, j] for i, j, _ in want]
            assert cs.distances.tolist() == [d for _, _, d in want]

    @pytest.mark.parametrize("ratio", [0.01])
    def test_empty_set_typed_like_a_full_one(self, monkeypatch, ratio):
        # no forward row passes, so the set is returned before the
        # backward search; it must look like the full path's empty set
        monkeypatch.setattr(facegraph, "_RATIO", ratio)
        rng = np.random.default_rng(9)
        g1, g2 = random_graph(rng, 7), random_graph(rng, 5)
        cs = mutual_correspondence(g1, g2)
        want_pairs, want_distances = dense_mutual(g1, g2, ratio)
        assert len(want_pairs) == 0
        for got, want in ((cs.pairs, want_pairs), (cs.distances, want_distances)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert (cs.pairs.dtype, cs.pairs.shape) == (np.intp, (0, 2))

    def test_subset_of_directional_and_injective(self, monkeypatch):
        monkeypatch.setattr(facegraph, "_RATIO", 0.99)
        rng = np.random.default_rng(8)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(3, 15)))
            g2 = random_graph(rng, int(rng.integers(3, 15)))
            mutual = mutual_correspondence(g1, g2)
            directional = ratio_oracle(g1.descriptors, g2.descriptors, 0.99)
            dir_pairs = {(i, j) for i, j, _ in directional}
            assert set(map(tuple, mutual.pairs.tolist())) <= dir_pairs
            for col in mutual.pairs.T:
                assert len(set(col.tolist())) == len(mutual)
            assert len(mutual) <= min(g1.n_vertices, g2.n_vertices)

    def test_duplicate_targets_defeat_ratio_test(self):
        rng = np.random.default_rng(60)
        g1 = random_graph(rng, 5)
        twins = graph_with_descriptors(
            np.tile(rng.random(128, dtype=np.float32), (2, 1))
        )
        # Second-nearest distance equals nearest, so nothing passes.
        assert len(mutual_correspondence(g1, twins)) == 0

    def test_swap_symmetry(self, monkeypatch):
        monkeypatch.setattr(facegraph, "_RATIO", 0.95)
        rng = np.random.default_rng(9)
        g1, g2 = random_graph(rng, 9), random_graph(rng, 11)
        fwd = mutual_correspondence(g1, g2)
        rev = mutual_correspondence(g2, g1)
        assert fwd.pairs.tolist() == sorted(rev.pairs[:, ::-1].tolist())
        order = np.argsort(rev.pairs[:, 1])
        assert fwd.distances.tolist() == rev.distances[order].tolist()

    def test_self_match_is_identity_with_zero_distance(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 8)
        cs = mutual_correspondence(g, g)
        assert cs.pairs.tolist() == [[i, i] for i in range(8)]
        assert cs.distances.tolist() == [0.0] * 8
