"""Vertex/edge scoring, empirical-rule weighting, and match/identify."""

import hashlib
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from graphsift import evaluation, facegraph, matcher
from graphsift.errors import EmptyGallery
from graphsift.facegraph import (
    build_graph,
    edge_component_arrays,
    mutual_correspondence,
)
from graphsift.matcher import (
    Constraint,
    REPORT_HEADER,
    _band_multipliers,
    gibmc_edge_score,
    gibmc_vertex_score,
    identify,
    match,
    report_row,
    rpbmc_pairs,
    weighted_mean,
)

from conftest import (
    dense_nearest,
    descriptor_graph,
    descriptor_pairs,
    edge_attr,
    kp_at,
    random_graph,
    random_keypoint,
    table,
)

# the paper's band weights, stated here apart from matcher's own copy
DEFAULT_MULTS = (0.075, 0.05, 0.025)


def graph_from_rows(rows, subject="s", image="i", positions=None):
    kps = []
    for i, row in enumerate(rows):
        x, y = positions[i] if positions is not None else (float(i), 0.0)
        kps.append(kp_at(x, y, descriptor=row))
    return build_graph(table(kps), subject, image)


def vertex_score_oracle(g1, g2):
    """Exhaustive double loop: per-gallery-vertex minimum, then mean."""
    minima = []
    for a in g1.descriptors:
        best = math.inf
        for b in g2.descriptors:
            best = min(best, math.dist(a, b))
        minima.append(best)
    return minima, sum(minima) / len(minima)


def pairing_oracle(g1, g2):
    """Dict-loop dedup of the per-gallery-vertex nearest probe target:
    per target the smallest distance wins, ties keep the first (lowest)
    gallery index; pairs come back sorted."""
    dist = cdist(g1._by_dim.T, g2._by_dim.T)
    by_target = {}
    for i, j in enumerate(dist.argmin(axis=1)):
        d = float(dist[i, j])
        held = by_target.get(int(j))
        if held is None or d < held[0]:
            by_target[int(j)] = (d, i)
    return sorted((i, j) for j, (_, i) in by_target.items())


def pairing(g1, g2):
    """The GIBMC edge-stage pairing as a sorted list of tuples."""
    pairs = gibmc_vertex_score(g1, g2)[2]
    assert pairs.shape[1:] == (2,)
    return [tuple(p) for p in pairs.tolist()]


def edge_score_oracle(g1, g2, pairs):
    """Scalar loop over corresponding edge pairs, triu order."""
    dists = []
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            i1, j1 = pairs[a]
            i2, j2 = pairs[b]
            ea, eb = edge_attr(g1, i1, i2), edge_attr(g2, j1, j2)
            dists.append(math.sqrt(
                (ea.length - eb.length) ** 2
                + (ea.dtheta - eb.dtheta) ** 2
                + (ea.dlogscale - eb.dlogscale) ** 2
            ))
    return dists


def band_oracle(value, mu, sigma):
    """Scalar empirical-rule classifier."""
    z = abs(value - mu)
    if z <= sigma:
        return DEFAULT_MULTS[0]
    if z <= 2.0 * sigma:
        return DEFAULT_MULTS[1]
    if z <= 3.0 * sigma:
        return DEFAULT_MULTS[2]
    return 0.0


def band_multipliers_oracle(distances, mu, sigma):
    """Three-mask banding: each band assigned by its own mask."""
    z = np.abs(np.asarray(distances, dtype=np.float64) - mu)
    out = np.zeros(z.shape)
    out[z <= sigma] = DEFAULT_MULTS[0]
    out[(z > sigma) & (z <= 2.0 * sigma)] = DEFAULT_MULTS[1]
    out[(z > 2.0 * sigma) & (z <= 3.0 * sigma)] = DEFAULT_MULTS[2]
    return out


def weighted_mean_oracle(distances):
    """Weighted mean with numpy's own mean and population std; where
    rounding leaves no entry in a band, the entries closest to the mean
    take the first weight."""
    arr = np.asarray(distances, dtype=np.float64)
    mu = float(arr.mean())
    mults = band_multipliers_oracle(arr, mu, float(arr.std()))
    if not mults.any():
        z = np.abs(arr - mu)
        mults = np.array([DEFAULT_MULTS[0] if v == z.min() else 0.0 for v in z])
    return float((arr * mults).sum() / np.count_nonzero(mults))


# two values, 18 of each: sigma rounds just below their equal deviations,
# so every entry falls from the first band into the second
ROUNDED_OUT = [0.7344835717887294] * 18 + [7.111428779897499] * 18


# small integers, halved: sums and squares stay exact, so values land
# exactly on the 1, 2 and 3 sigma edges and sigma = 0 occurs
GRID_LISTS = st.lists(
    st.integers(0, 12).map(lambda v: v / 2), min_size=1, max_size=64
)
FLOAT_LISTS = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
    min_size=1, max_size=64,
)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestVertexScore:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(2, 25)))
            g2 = random_graph(rng, int(rng.integers(2, 25)))
            minima, mean, pairs = gibmc_vertex_score(g1, g2)
            want_minima, want_mean = vertex_score_oracle(g1, g2)
            assert len(minima) == g1.n_vertices
            np.testing.assert_allclose(minima, want_minima, rtol=1e-12)
            assert mean == pytest.approx(want_mean, rel=1e-12)
            best, dense_minima = dense_nearest(g1, g2)
            assert minima.tobytes() == dense_minima.tobytes()
            assert pairs[:, 1].tolist() == best[pairs[:, 0]].tolist()

    @settings(max_examples=200, deadline=None)
    @given(descriptor_pairs(max_rows=30))
    def test_matches_dense_oracle_bit_for_bit(self, rows):
        # Exact ties, one-ulp near ties, bounds that underflow or
        # overflow and the exact-0 self match: minima, their mean and
        # the pairing must be the dense path's to the bit.
        g1, g2 = (descriptor_graph(r) for r in rows)
        # only the 1e160 rows overflow, in both paths alike
        with np.errstate(over="ignore", invalid="ignore"):
            minima, mean, pairs = gibmc_vertex_score(g1, g2)
            best, want = dense_nearest(g1, g2)
            want_pairs = pairing_oracle(g1, g2)
        assert minima.tobytes() == want.tobytes()
        assert np.float64(mean).tobytes() == (want.sum() / len(want)).tobytes()
        assert pairs[:, 1].tolist() == best[pairs[:, 0]].tolist()
        assert [tuple(p) for p in pairs.tolist()] == want_pairs

    def test_single_pair_sums_in_dimension_order(self):
        # numpy sums a lone (128, 1) column pairwise rather than in
        # dimension order; on this pair the two differ in the last bit.
        # The far vertices c and d each pass their own ratio test toward
        # the other graph's close vertex, which prefers its partner, so
        # a-b is the one mutual pair and its distance must still be
        # cdist's.
        rng = np.random.default_rng(0)
        x = rng.random((2, 128))
        a, b = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
        c, d = 10.0 * np.eye(128, dtype=np.float32)[:2]
        ga, gb = descriptor_graph([a, c]), descriptor_graph([b, d])
        dist = cdist(ga.descriptors, gb.descriptors)
        want = dist[0, 0]
        sq = (ga.descriptors[0].astype(np.float64) - gb.descriptors[0])[:, None] ** 2
        assert np.sqrt(np.add.reduce(sq, axis=0))[0] != want
        cs = mutual_correspondence(ga, gb)
        assert cs.pairs.tolist() == [[0, 0]]
        assert cs.distances.tobytes() == np.float64(want).tobytes()
        assert gibmc_vertex_score(ga, gb)[0].tobytes() == dist.min(axis=1).tobytes()

    def test_two_against_one_halves_the_distance(self):
        # the probe holds u's descriptor twice, at two positions, so
        # both gallery vertices find it nearest
        rng = np.random.default_rng(21)
        u, v = random_keypoint(rng), random_keypoint(rng)
        u_moved = u.copy()
        u_moved[:2] += 5.0
        gallery = build_graph(table([u, v]), "s", "g")
        probe = build_graph(table([u, u_moved]), "s", "p")
        minima, mean, _ = gibmc_vertex_score(gallery, probe)
        d_uv = float(np.linalg.norm(
            gallery.descriptors[0].astype(np.float64) - gallery.descriptors[1]
        ))
        assert minima[0] == 0.0
        assert minima[1] == pytest.approx(d_uv, rel=1e-12)
        assert mean == pytest.approx(d_uv / 2.0, rel=1e-12)

    def test_identity_is_exactly_zero(self):
        g = random_graph(np.random.default_rng(22), 10)
        minima, mean, _ = gibmc_vertex_score(g, g)
        assert np.all(minima == 0.0)
        assert mean == 0.0


class TestMinDistancePairing:
    def test_collision_keeps_closest(self):
        probe = np.zeros((2, 128), dtype=np.float32)
        probe[1, 0] = 50.0
        gallery = np.zeros((3, 128), dtype=np.float32)
        gallery[0, 1], gallery[1, 2], gallery[2, 3] = 3.0, 1.0, 2.0
        g1 = graph_from_rows(gallery)
        g2 = graph_from_rows(probe)
        assert pairing(g1, g2) == [(1, 0)]

    def test_tie_keeps_lowest_gallery_index(self):
        probe = np.zeros((2, 128), dtype=np.float32)
        probe[1, 0] = 50.0
        gallery = np.zeros((3, 128), dtype=np.float32)
        gallery[0, 1] = 2.0
        gallery[1, 2] = 2.0  # same distance to probe 0 as gallery 0
        gallery[2, 3] = 5.0
        g1 = graph_from_rows(gallery)
        assert pairing(g1, graph_from_rows(probe)) == [(0, 0)]

    def test_distinct_targets_all_survive_sorted(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        assert pairing(g, g) == [(i, i) for i in range(8)]

    def test_probe_targets_unique(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(2, 20)))
            g2 = random_graph(rng, int(rng.integers(2, 20)))
            pairs = pairing(g1, g2)
            targets = [j for _, j in pairs]
            assert len(set(targets)) == len(targets)
            assert pairs == sorted(pairs)
            assert pairs == pairing_oracle(g1, g2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                 min_size=2, max_size=40),
        st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                 min_size=2, max_size=12),
    )
    def test_matches_dict_loop_oracle_with_ties(self, gallery, probe):
        # Descriptors on a {0, 1, 2}^3 grid: distances are square roots
        # of small integers, so exact ties in distance and target are
        # the common case.
        def graph(rows):
            return graph_from_rows(np.pad(np.array(rows), ((0, 0), (0, 125))))

        g1, g2 = graph(gallery), graph(probe)
        assert pairing(g1, g2) == pairing_oracle(g1, g2)


class TestEdgeScore:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(25)
        g1, g2 = random_graph(rng, 9), random_graph(rng, 9)
        pairs = [(0, 3), (2, 5), (4, 1), (7, 8)]
        dists, mean = gibmc_edge_score(g1, g2, np.array(pairs))
        want = edge_score_oracle(g1, g2, pairs)
        assert len(dists) == len(pairs) * (len(pairs) - 1) // 2
        np.testing.assert_allclose(dists, want, rtol=1e-9)
        assert mean == pytest.approx(sum(want) / len(want), rel=1e-9)

    # sha256 of the distances' and the mean's bytes, recorded with the
    # three-array expression below before the edge stage was rewritten
    EDGE_SCORE_SHA256 = {
        2: "0c10da778976a5ed097094ba579a9332af93965f351e821cf661e65a5a8589f8",
        3: "21d3f22f780d3764dd8bfad7aa282af0a6dbe1b347e2b329b677cc14c1137900",
        28: "74a9795e602a9d45cf22d632d7bd9ec4e84e1b6f628c09f39f8b94f2c4412e26",
        129: "5ec0148989d094a149a9f3236d7cce91b0fe0bdcfbebdc96091698f66371efc2",
    }

    @pytest.mark.parametrize("k", sorted(EDGE_SCORE_SHA256))
    def test_bytes_match_three_array_expression(self, k):
        # 129 pairs cross _TRIU_CACHE_MAX_K; 2 pairs give a single edge
        rng = np.random.default_rng(k)
        g1, g2 = random_graph(rng, 140), random_graph(rng, 135)
        pairs = np.column_stack([rng.permutation(140)[:k], rng.permutation(135)[:k]])
        dists, mean = gibmc_edge_score(g1, g2, pairs)
        gl, gt, gs = edge_component_arrays(g1, pairs[:, 0])
        pl, pt, ps = edge_component_arrays(g2, pairs[:, 1])
        want = np.sqrt((gl - pl) ** 2 + (gt - pt) ** 2 + (gs - ps) ** 2)
        assert dists.tobytes() == want.tobytes()
        assert same_bits(mean, float(want.sum() / len(want)))
        digest = hashlib.sha256(dists.tobytes() + np.float64(mean).tobytes())
        assert digest.hexdigest() == self.EDGE_SCORE_SHA256[k]

    @pytest.mark.parametrize("n_pairs", [0, 1])
    def test_fewer_than_two_pairs(self, n_pairs):
        rng = np.random.default_rng(27)
        g1, g2 = random_graph(rng, 4), random_graph(rng, 4)
        dists, mean = gibmc_edge_score(g1, g2, np.zeros((n_pairs, 2), np.intp))
        assert dists.size == 0
        assert mean == 0.0

    def test_uniform_position_scaling_is_free(self):
        # Doubling all coordinates leaves normalized lengths untouched,
        # so a graph and its scaled copy have edge distance exactly 0.
        rng = np.random.default_rng(28)
        kps = table([random_keypoint(rng) for _ in range(7)])
        scaled = kps.rows.copy()
        scaled[:, :2] *= 2.0
        g1 = build_graph(kps, "s", "a")
        g2 = build_graph(table(scaled), "s", "b")
        pairs = np.column_stack([np.arange(7)] * 2)
        dists, mean = gibmc_edge_score(g1, g2, pairs)
        assert np.all(dists == 0.0)
        assert mean == 0.0


class TestRpbmcPairs:
    def test_equals_mutual_correspondence(self, monkeypatch):
        monkeypatch.setattr(facegraph, "_RATIO", 0.95)
        rng = np.random.default_rng(29)
        g1, g2 = random_graph(rng, 10), random_graph(rng, 12)
        got = rpbmc_pairs(g1, g2)
        want = mutual_correspondence(g1, g2)
        assert np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.distances, want.distances)

    def test_ratio_is_lowes(self):
        # Far-apart clusters on axes 10-13. In the first two a gallery
        # vertex has its nearest probe vertex along axis 0, at the
        # float32 neighbours of 0.8 below and above, and its second
        # nearest at 1.0 along axis 1; the other two are exact copies.
        # Only d1/d2 below 0.8 passes Lowe's ratio test.
        below = float(np.nextafter(np.float32(0.8), np.float32(0)))
        above = float(np.float32(0.8))
        assert below < 0.8 < above
        e = 100.0 * np.eye(128, dtype=np.float32)
        unit = np.eye(128, dtype=np.float32)
        gallery = graph_from_rows([e[10], e[11], e[12], e[13]])
        probe = graph_from_rows([
            e[10] + below * unit[0], e[10] + unit[1],
            e[11] + above * unit[0], e[11] + unit[1],
            e[12], e[13],
        ])
        assert rpbmc_pairs(gallery, probe).pairs.tolist() == [[0, 0], [2, 4], [3, 5]]
        s = match(gallery, probe, Constraint.RPBMC)
        assert s.n_vertex_pairs == 3
        assert s.vertex_raw == below / 3


class TestBanding:
    def test_matches_scalar_oracle_bulk(self):
        rng = np.random.default_rng(30)
        values = rng.normal(5.0, 2.0, size=10_000)
        mu, sigma = float(values.mean()), float(values.std())
        got = _band_multipliers(np.abs(values - mu), sigma)
        for v, m in zip(values, got):
            assert m == band_oracle(v, mu, sigma)

    def test_zero_sigma_first_band(self):
        values = np.full(50, 3.25)
        got = _band_multipliers(np.abs(values - 3.25), 0.0)
        assert np.all(got == 0.075)

    def test_band_edges_inclusive(self):
        d = np.array([5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5])
        mults = _band_multipliers(np.abs(d - 5.0), 1.0)
        assert list(mults) == [0.075, 0.075, 0.05, 0.05, 0.025, 0.025, 0.0]

    def test_two_value_hand_case(self):
        # mean 5 and population sigma 5 put both values on the 1-sigma edge
        d = np.array([0.0, 10.0])
        assert list(_band_multipliers(np.abs(d - 5.0), 5.0)) == [
            0.075, 0.075
        ]
        assert weighted_mean([0.0, 10.0]) == 0.375

    def test_gaussian_weight_params_and_product(self):
        rng = np.random.default_rng(31)
        arr = rng.random(64)
        mults = _band_multipliers(
            np.abs(arr - float(arr.mean())), float(arr.std())
        )
        assert weighted_mean(arr) == float(
            (arr * mults).sum() / np.count_nonzero(mults)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([])
        with pytest.raises(ValueError):
            weighted_mean(np.empty(0))

    def test_no_survivor_falls_back_to_closest_entries(self):
        # rounding can move entries by a band, never past 3 sigma: only
        # squared deviations that underflow to 0, making sigma 0, leave
        # no survivor under the paper's weights
        arr = np.array(ROUNDED_OUT)
        z = np.abs(arr - arr.mean())
        assert (z > arr.std()).all()
        assert (_band_multipliers(z, float(arr.std())) == DEFAULT_MULTS[1]).all()
        # deviations of 4e-237 and of 2.5e-201 or more square to 0: the
        # entries closest to the mean take the first weight, the rest none
        for values, want in (
            ([0.0, 8e-237], 0.075 * 8e-237 / 2),
            ([1e-200] * 3 + [0.0], 0.075 * 1e-200),
        ):
            arr = np.array(values)
            z = np.abs(arr - arr.mean())
            assert not _band_multipliers(z, float(arr.std())).any()
            assert same_bits(weighted_mean(arr), weighted_mean_oracle(arr))
            assert weighted_mean(arr) == want

    @pytest.mark.parametrize(
        "values",
        [[1.0, math.inf], [math.nan, 2.0], [math.inf], [-math.inf, math.inf],
         [1e308, 1e308], [1e160, -1e160]],
    )
    def test_non_finite_rejected(self, values):
        with pytest.raises(ValueError, match="mean"):
            weighted_mean(values)

    def test_outlier_excluded_from_weighted_mean(self):
        # Ten 1s and one 101: the outlier sits beyond 3 sigma, carries
        # weight 0, and is excluded from the denominator.
        values = [1.0] * 10 + [101.0]
        assert weighted_mean(values) == pytest.approx(0.075, rel=1e-12)

    def test_at_least_one_entry_survives(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            arr = rng.normal(0.0, rng.uniform(0.1, 10.0), size=int(rng.integers(1, 40)))
            mults = _band_multipliers(
                np.abs(arr - float(arr.mean())), float(arr.std())
            )
            assert np.count_nonzero(mults) >= 1

    @given(
        st.lists(st.integers(-1000, 1000), min_size=8, max_size=8),
        st.integers(-10_000, 10_000),
    )
    def test_translation_invariant_bands(self, values, shift):
        # Integer data with power-of-two length keeps the mean exact, so
        # shifting every value by a constant must not change any band.
        a = np.array(values, dtype=np.float64)
        b = a + float(shift)
        ma, mb = (
            _band_multipliers(
                np.abs(x - float(x.mean())), float(x.std())
            )
            for x in (a, b)
        )
        assert np.array_equal(ma, mb)

    @given(st.one_of(GRID_LISTS, FLOAT_LISTS))
    # mean 5, sigma 5: both on the 1-sigma edge; mean 1, sigma 2 and 3:
    # the 5 and the 10 sit on the 2- and 3-sigma edges; one value and
    # equal values give sigma 0
    @example([0.0, 10.0])
    @example([0.0] * 4 + [5.0])
    @example([0.0] * 9 + [10.0])
    @example([2.5])
    @example([4.0] * 7)
    # rounding off the 1-sigma edge; squares that underflow, so that no
    # entry survives the bands
    @example(ROUNDED_OUT)
    @example([0.0, 7.553245349284459e-237])
    @example([1e-200] * 3 + [0.0])
    @settings(max_examples=300, deadline=None)
    def test_weighting_matches_numpy_oracle_bit_for_bit(self, values):
        arr = np.array(values)
        mu, sigma = float(arr.mean()), float(arr.std())
        assert same_bits(
            _band_multipliers(np.abs(arr - mu), sigma),
            band_multipliers_oracle(arr, mu, sigma),
        )
        # the mean and sigma weighted_mean bands with are numpy's, to the
        # bit: they move the result only where a value sits on an edge.
        # The shared banding helper sees the mean through the deviations.
        with mock.patch.object(
            matcher, "_band_multipliers", wraps=matcher._band_multipliers
        ) as spy:
            got = weighted_mean(arr)
        (z_used, sigma_used), _ = spy.call_args
        assert same_bits(z_used, np.abs(arr - mu)) and same_bits(sigma_used, sigma)
        assert same_bits(got, weighted_mean_oracle(arr))

    @given(
        FLOAT_LISTS,
        st.floats(-1e6, 1e6, allow_nan=False),
        st.one_of(
            st.floats(0.0, allow_infinity=False), st.sampled_from([0.0, -0.0])
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_band_multipliers_match_oracle_any_sigma(self, values, mu, sigma):
        # any finite sigma of at least 0, as weighted_mean computes it,
        # bands exactly as the masks do, also one unrelated to the values
        d = np.array(values, dtype=np.float64)
        assert same_bits(
            _band_multipliers(np.abs(d - mu), sigma),
            band_multipliers_oracle(d, mu, sigma),
        )


class TestMatch:
    def test_identity_zero_both_constraints(self):
        g = random_graph(np.random.default_rng(33), 12)
        for constraint in Constraint:
            s = match(g, g, constraint)
            assert s.vertex_raw == 0.0
            assert s.edge_raw == 0.0
            assert s.vertex_weighted == 0.0
            assert s.edge_weighted == 0.0
            assert s.combined == 0.0
            assert s.constraint is constraint

    def test_gibmc_pair_counts(self):
        rng = np.random.default_rng(34)
        g1, g2 = random_graph(rng, 15), random_graph(rng, 9)
        s = match(g1, g2, Constraint.GIBMC)
        assert s.n_vertex_pairs == g1.n_vertices
        p = len(pairing(g1, g2))
        assert s.n_edge_pairs == p * (p - 1) // 2

    def test_rpbmc_pair_counts(self):
        rng = np.random.default_rng(35)
        g1, g2 = random_graph(rng, 15), random_graph(rng, 9)
        cs = rpbmc_pairs(g1, g2)
        s = match(g1, g2, Constraint.RPBMC)
        assert s.n_vertex_pairs == len(cs)
        if len(cs) >= 2:
            assert s.n_edge_pairs == len(cs) * (len(cs) - 1) // 2
        assert s.n_vertex_pairs <= match(g1, g2, Constraint.GIBMC).n_vertex_pairs

    def test_combined_blend_formula(self, monkeypatch):
        # each weighted mean halved, then summed: 0.5 * (v + e) differs
        # where the scores are subnormal
        monkeypatch.setattr(facegraph, "_RATIO", 1.0)
        rng = np.random.default_rng(36)
        g1, g2 = random_graph(rng, 10), random_graph(rng, 10)
        for constraint in Constraint:
            s = match(g1, g2, constraint)
            assert s.n_edge_pairs > 0
            assert same_bits(
                s.combined, 0.5 * s.vertex_weighted + 0.5 * s.edge_weighted
            )

    def test_probe_permutation_invariance(self):
        rng = np.random.default_rng(37)
        g1 = random_graph(rng, 12)
        kps = table([random_keypoint(rng) for _ in range(14)])
        g2 = build_graph(kps, "p", "i")
        perm = rng.permutation(14)
        g2p = build_graph(table(kps.rows[perm]), "p", "i")
        for constraint in Constraint:
            a = match(g1, g2, constraint)
            b = match(g1, g2p, constraint)
            assert b.combined == pytest.approx(a.combined, rel=1e-10)
            assert b.n_vertex_pairs == a.n_vertex_pairs
            assert b.n_edge_pairs == a.n_edge_pairs

    def test_rpbmc_no_mutual_pairs_is_infinite(self):
        a = np.zeros(128, dtype=np.float32)
        b = np.zeros(128, dtype=np.float32)
        b[0] = 9.0
        # Duplicate rows on both sides: every ratio test fails.
        g1 = graph_from_rows([a, a])
        g2 = graph_from_rows([b, b])
        s = match(g1, g2, Constraint.RPBMC)
        assert s.combined == math.inf
        assert s.vertex_weighted == math.inf
        assert s.n_vertex_pairs == 0
        assert s.n_edge_pairs == 0

    def test_rpbmc_single_mutual_pair_is_infinite(self):
        a = np.zeros(128, dtype=np.float32)
        c = np.zeros(128, dtype=np.float32)
        d = np.zeros(128, dtype=np.float32)
        c[1], d[2] = 7.0, 7.0
        g1 = graph_from_rows([a, c, c])
        g2 = graph_from_rows([a, d, d])
        s = match(g1, g2, Constraint.RPBMC)
        assert s.n_vertex_pairs == 1
        assert s.n_edge_pairs == 0
        assert s.combined == math.inf

    def test_gibmc_collapsed_pairing_uses_vertex_score(self):
        # Every gallery vertex is nearest to the same probe vertex, so
        # the edge stage has a single pair and the vertex component
        # carries the combined score alone.
        rows = np.zeros((3, 128), dtype=np.float32)
        rows[0, 0], rows[1, 0], rows[2, 0] = 0.1, 0.2, 0.3
        probe = np.zeros((2, 128), dtype=np.float32)
        probe[1, 1] = 80.0
        s = match(graph_from_rows(rows), graph_from_rows(probe), Constraint.GIBMC)
        assert s.n_edge_pairs == 0
        assert s.edge_weighted == 0.0
        assert s.combined == s.vertex_weighted

    def test_weighted_fields_recomputable(self):
        rng = np.random.default_rng(39)
        g1, g2 = random_graph(rng, 11), random_graph(rng, 13)
        s = match(g1, g2, Constraint.GIBMC)
        minima = gibmc_vertex_score(g1, g2)[0]
        assert s.vertex_weighted == pytest.approx(
            weighted_mean(minima), rel=1e-12
        )


class TestIdentify:
    def test_rank_one_for_exact_copy(self):
        rng = np.random.default_rng(40)
        gallery = [random_graph(rng, 10, subject=f"s{k}", image="t") for k in range(5)]
        probe = build_graph(gallery[2].vertices, "unknown", "probe")
        for constraint in Constraint:
            ranked = identify(probe, gallery, constraint)
            assert ranked[0][0] == "s2"
            assert ranked[0][1].combined == 0.0
            assert len(ranked) == 5
            scores = [s.combined for _, s in ranked]
            assert scores == sorted(scores)

    def test_best_image_per_subject(self):
        rng = np.random.default_rng(41)
        near = random_graph(rng, 8, subject="s0", image="a")
        far = random_graph(rng, 8, subject="s0", image="b")
        probe = build_graph(near.vertices, "q", "p")
        ranked = identify(probe, [far, near], Constraint.GIBMC)
        assert ranked[0][0] == "s0"
        assert ranked[0][1].combined == 0.0

    def test_tie_breaks_lexicographic(self):
        rng = np.random.default_rng(42)
        kps = table([random_keypoint(rng) for _ in range(6)])
        g_b = build_graph(kps, "b", "i")
        g_a = build_graph(kps, "a", "i")
        probe = build_graph(kps, "q", "p")
        ranked = identify(probe, [g_b, g_a])
        assert [sid for sid, _ in ranked] == ["a", "b"]

    def test_empty_gallery_rejected(self):
        rng = np.random.default_rng(43)
        with pytest.raises(EmptyGallery):
            identify(random_graph(rng, 5), [])


class TestReportRows:
    def test_header_fields(self):
        assert REPORT_HEADER.split(",") == [
            "probe_image_id", "gallery_subject_id", "constraint",
            "vertex_raw", "edge_raw", "vertex_weighted", "edge_weighted",
            "combined", "n_vertex_pairs", "n_edge_pairs",
        ]

    def test_row_round_trip(self):
        rng = np.random.default_rng(44)
        g1, g2 = random_graph(rng, 8), random_graph(rng, 8)
        s = match(g1, g2, Constraint.RPBMC)
        row = report_row("p01", "s03", s).split(",")
        assert len(row) == len(REPORT_HEADER.split(","))
        assert row[0] == "p01"
        assert row[1] == "s03"
        assert row[2] == "rpbmc"
        assert float(row[7]) == pytest.approx(s.combined, rel=1e-8)
        assert int(row[8]) == s.n_vertex_pairs
        assert int(row[9]) == s.n_edge_pairs

    @pytest.mark.parametrize("char", [",", "\n", "\r"], ids=["comma", "lf", "cr"])
    def test_unwritable_ids_rejected(self, char):
        rng = np.random.default_rng(44)
        s = match(random_graph(rng, 8), random_graph(rng, 8), Constraint.RPBMC)
        with pytest.raises(ValueError, match="probe image id"):
            report_row(f"p{char}01", "s03", s)
        with pytest.raises(ValueError, match="subject id"):
            report_row("p01", f"s{char}03", s)


def test_match_call_shapes(monkeypatch, corpus_graphs, corpus_rows):
    # The benchmark's tracer wraps these bindings by name and counts one
    # call per match, per weighted list and per paired sub-graph; folding
    # pairs into batched calls would silently change what its counts mean.
    calls = Counter()
    matches = []  # (score, calls made inside that match)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recorded(fn):
        def wrapper(*args, **kwargs):
            before = calls.copy()
            score = fn(*args, **kwargs)
            matches.append((score, calls - before))
            return score

        return wrapper

    for name in ("mutual_correspondence", "gibmc_vertex_score",
                 "edge_component_arrays", "weighted_mean"):
        monkeypatch.setattr(matcher, name, counted(name, getattr(matcher, name)))
    monkeypatch.setattr(evaluation, "match", recorded(evaluation.match))
    monkeypatch.setattr(matcher, "match", recorded(matcher.match))

    # two subjects of each group; each enrolls its train image and its
    # last test view, so a claim takes two matches
    groups = {r.subject_id: r.group for r in corpus_rows}
    kept = [s for g in ("G1", "G2") for s in sorted(s for s in groups if groups[s] == g)[:2]]
    views = {s: [r.image_id for r in corpus_rows if r.subject_id == s] for s in kept}
    gallery = [corpus_graphs[(s, views[s][0])] for s in kept]
    gallery += [corpus_graphs[(s, views[s][-1])] for s in kept]
    probes = [corpus_graphs[(s, i)] for s in kept for i in views[s][1:-1]]
    for constraint in Constraint:
        matches.clear()
        result = evaluation.run_protocol(gallery, probes, groups, constraint)
        # every probe claims both subjects of its group
        assert len(result.records) == 2 * len(probes)
        assert len(matches) == 2 * len(result.records)
        seen = check_call_shapes(matches, constraint)
        assert seen == ({"inf", "edges"} if constraint is Constraint.RPBMC else {"edges"})
    # a probe whose vertices share one descriptor collapses every gibmc
    # pairing onto its first vertex
    rows_q = probes[0].vertices.rows[:2].copy()
    rows_q[1, 4:] = rows_q[0, 4:]
    probe = build_graph(table(rows_q), "q", "q")
    matches.clear()
    identify(probe, gallery, Constraint.GIBMC)
    assert len(matches) == len(gallery)
    assert check_call_shapes(matches, Constraint.GIBMC) == {"collapsed"}


def check_call_shapes(matches, constraint):
    """Assert each match's calls against its score; return the kinds seen."""
    seen = set()
    for score, made in matches:
        assert score.constraint is constraint
        if constraint is Constraint.RPBMC:
            want = Counter(mutual_correspondence=1)
            kind = "inf" if math.isinf(score.combined) else "edges"
        else:
            want = Counter(gibmc_vertex_score=1)
            kind = "edges" if score.n_edge_pairs else "collapsed"
        if kind == "edges":
            want.update(edge_component_arrays=2, weighted_mean=2)
        elif kind == "collapsed":
            want.update(weighted_mean=1)
        assert made == want, (kind, score)
        seen.add(kind)
    return seen
