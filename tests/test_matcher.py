"""Vertex/edge scoring, empirical-rule weighting, and match/identify."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from graphsift import matcher
from graphsift.config import MatchConfig
from graphsift.errors import EmptyGallery, TooFewKeypoints
from graphsift.facegraph import (
    CorrespondenceSet,
    FaceGraph,
    build_graph,
    mutual_correspondence,
)
from graphsift.matcher import (
    Constraint,
    REPORT_HEADER,
    band_multipliers,
    gibmc_edge_score,
    gibmc_vertex_score,
    identify,
    match,
    report_row,
    rpbmc_pairs,
    weighted_mean,
)
from graphsift.sift import Keypoint

from conftest import edge_attr, random_graph, random_keypoint

DEFAULT_MULTS = (0.075, 0.05, 0.025)


def graph_from_rows(rows, subject="s", image="i", positions=None):
    rows = np.asarray(rows, dtype=np.float32)
    kps = []
    for i, row in enumerate(rows):
        x, y = positions[i] if positions is not None else (float(i), 0.0)
        kps.append(
            Keypoint(x=float(x), y=float(y), scale=1.0, orientation=0.0,
                     descriptor=row)
        )
    return build_graph(kps, subject, image)


def single_vertex_graph(kp, subject="s", image="i"):
    return FaceGraph(vertices=(kp,), subject_id=subject, image_id=image)


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
    dist = cdist(g1.descriptors, g2.descriptors)
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


def band_oracle(value, mu, sigma, mults=DEFAULT_MULTS):
    """Scalar empirical-rule classifier."""
    z = abs(value - mu)
    if z <= sigma:
        return mults[0]
    if z <= 2.0 * sigma:
        return mults[1]
    if z <= 3.0 * sigma:
        return mults[2]
    return 0.0


def band_multipliers_oracle(distances, mu, sigma, multipliers=DEFAULT_MULTS):
    """Three-mask banding: each band assigned by its own mask."""
    z = np.abs(np.asarray(distances, dtype=np.float64) - mu)
    out = np.zeros(z.shape)
    out[z <= sigma] = multipliers[0]
    out[(z > sigma) & (z <= 2.0 * sigma)] = multipliers[1]
    out[(z > 2.0 * sigma) & (z <= 3.0 * sigma)] = multipliers[2]
    return out


def weighted_mean_oracle(distances, multipliers=DEFAULT_MULTS):
    """Weighted mean with numpy's own mean and population std; where
    rounding leaves no entry in a band, the entries closest to the mean
    take the first multiplier."""
    arr = np.asarray(distances, dtype=np.float64)
    mu = float(arr.mean())
    mults = band_multipliers_oracle(arr, mu, float(arr.std()), multipliers)
    if not mults.any():
        z = np.abs(arr - mu)
        mults = np.array([multipliers[0] if v == z.min() else 0.0 for v in z])
    return float((arr * mults).sum() / np.count_nonzero(mults))


# two values, 18 of each: sigma rounds just below their equal deviations,
# so no entry lies within one sigma
ROUNDED_OUT = [0.7344835717887294] * 18 + [7.111428779897499] * 18


# the paper's weights, and weights that zero the second or third band
MULTIPLIER_SETS = st.sampled_from(
    [DEFAULT_MULTS, (0.075, 0.0, 0.025), (0.075, 0.05, 0.0), (1.0, 0.0, 0.0)]
)
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
            minima, mean, _ = gibmc_vertex_score(g1, g2)
            want_minima, want_mean = vertex_score_oracle(g1, g2)
            assert len(minima) == g1.n_vertices
            np.testing.assert_allclose(minima, want_minima, rtol=1e-12)
            assert mean == pytest.approx(want_mean, rel=1e-12)

    def test_two_against_one_halves_the_distance(self):
        rng = np.random.default_rng(21)
        u, v = random_keypoint(rng), random_keypoint(rng)
        gallery = build_graph([u, v], "s", "g")
        probe = single_vertex_graph(u, image="p")
        minima, mean, _ = gibmc_vertex_score(gallery, probe)
        d_uv = float(np.linalg.norm(
            gallery.descriptors[0] - gallery.descriptors[1]
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

    @pytest.mark.parametrize("n_pairs", [0, 1])
    def test_fewer_than_two_pairs(self, n_pairs):
        rng = np.random.default_rng(27)
        g1, g2 = random_graph(rng, 4), random_graph(rng, 4)
        dists, mean = gibmc_edge_score(g1, g2, [(0, 0)][:n_pairs])
        assert dists.size == 0
        assert mean == 0.0

    def test_uniform_position_scaling_is_free(self):
        # Doubling all coordinates leaves normalized lengths untouched,
        # so a graph and its scaled copy have edge distance exactly 0.
        rng = np.random.default_rng(28)
        kps = [random_keypoint(rng) for _ in range(7)]
        scaled = [
            Keypoint(x=2.0 * kp.x, y=2.0 * kp.y, scale=kp.scale,
                     orientation=kp.orientation, descriptor=kp.descriptor)
            for kp in kps
        ]
        g1 = build_graph(kps, "s", "a")
        g2 = build_graph(scaled, "s", "b")
        pairs = [(i, i) for i in range(7)]
        dists, mean = gibmc_edge_score(g1, g2, pairs)
        assert np.all(dists == 0.0)
        assert mean == 0.0


class TestRpbmcPairs:
    def test_equals_mutual_correspondence(self):
        rng = np.random.default_rng(29)
        g1, g2 = random_graph(rng, 10), random_graph(rng, 12)
        got = rpbmc_pairs(g1, g2, ratio=0.95)
        want = mutual_correspondence(g1, g2, ratio=0.95)
        assert np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.distances, want.distances)

    @pytest.mark.parametrize("pairs", [[[0, 1], [2, 1]], [[0, 1], [0, 2]]])
    def test_repeated_vertex_caught(self, pairs):
        # the guard of the one-to-one contract, fed a pairing that breaks it
        rng = np.random.default_rng(29)
        g1, g2 = random_graph(rng, 4), random_graph(rng, 4)
        broken = CorrespondenceSet(pairs=np.array(pairs), distances=np.ones(2))
        with mock.patch.object(matcher, "mutual_correspondence", return_value=broken):
            with pytest.raises(AssertionError, match="repeated vertex"):
                rpbmc_pairs(g1, g2)


class TestBanding:
    def test_matches_scalar_oracle_bulk(self):
        rng = np.random.default_rng(30)
        values = rng.normal(5.0, 2.0, size=10_000)
        mu, sigma = float(values.mean()), float(values.std())
        got = band_multipliers(values, mu, sigma)
        for v, m in zip(values, got):
            assert m == band_oracle(v, mu, sigma)

    def test_zero_sigma_first_band(self):
        values = np.full(50, 3.25)
        got = band_multipliers(values, 3.25, 0.0)
        assert np.all(got == 0.075)

    def test_band_edges_inclusive(self):
        mults = band_multipliers(
            np.array([5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5]), 5.0, 1.0
        )
        assert list(mults) == [0.075, 0.075, 0.05, 0.05, 0.025, 0.025, 0.0]

    def test_two_value_hand_case(self):
        # mean 5 and population sigma 5 put both values on the 1-sigma edge
        assert list(band_multipliers([0.0, 10.0], 5.0, 5.0)) == [0.075, 0.075]
        assert weighted_mean([0.0, 10.0]) == 0.375

    def test_gaussian_weight_params_and_product(self):
        rng = np.random.default_rng(31)
        arr = rng.random(64)
        mults = band_multipliers(arr, float(arr.mean()), float(arr.std()))
        assert weighted_mean(arr) == float(
            (arr * mults).sum() / np.count_nonzero(mults)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([])
        with pytest.raises(ValueError):
            weighted_mean(np.empty(0))

    def test_no_survivor_falls_back_to_closest_entries(self):
        # at the 1-sigma edge in exact arithmetic, just outside it after
        # rounding: every entry is equally close, so all of them weigh 1
        arr = np.array(ROUNDED_OUT)
        z = np.abs(arr - arr.mean())
        assert (z > arr.std()).all()
        assert weighted_mean(arr, (1.0, 0.0, 0.0)) == float(arr.sum() / arr.size)
        # deviations of 4e-237 square to 0, so sigma is 0
        assert weighted_mean([0.0, 8e-237]) == 0.075 * 8e-237 / 2

    @pytest.mark.parametrize(
        "values", [[1.0, math.inf], [math.nan, 2.0], [math.inf]]
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
            mults = band_multipliers(arr, float(arr.mean()), float(arr.std()))
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
        ma = band_multipliers(a, float(a.mean()), float(a.std()))
        mb = band_multipliers(b, float(b.mean()), float(b.std()))
        assert np.array_equal(ma, mb)

    @given(st.one_of(GRID_LISTS, FLOAT_LISTS), MULTIPLIER_SETS)
    # mean 5, sigma 5: both on the 1-sigma edge; mean 1, sigma 2 and 3:
    # the 5 and the 10 sit on the 2- and 3-sigma edges; one value and
    # equal values give sigma 0
    @example([0.0, 10.0], DEFAULT_MULTS)
    @example([0.0] * 4 + [5.0], DEFAULT_MULTS)
    @example([0.0] * 9 + [10.0], DEFAULT_MULTS)
    @example([0.0] * 9 + [10.0], (0.075, 0.05, 0.0))
    @example([2.5], DEFAULT_MULTS)
    @example([4.0] * 7, DEFAULT_MULTS)
    # no entry survives the bands: rounding, and squares that underflow
    @example(ROUNDED_OUT, (1.0, 0.0, 0.0))
    @example([0.0, 7.553245349284459e-237], DEFAULT_MULTS)
    @settings(max_examples=300, deadline=None)
    def test_weighting_matches_numpy_oracle_bit_for_bit(self, values, mults):
        arr = np.array(values)
        mu, sigma = float(arr.mean()), float(arr.std())
        assert same_bits(
            band_multipliers(arr, mu, sigma, mults),
            band_multipliers_oracle(arr, mu, sigma, mults),
        )
        # the mean and sigma weighted_mean bands with are numpy's, to the
        # bit: they move the result only where a value sits on an edge
        with mock.patch.object(
            matcher, "band_multipliers", wraps=matcher.band_multipliers
        ) as spy:
            got = weighted_mean(arr, mults)
        (_, mu_used, sigma_used, _), _ = spy.call_args
        assert same_bits(mu_used, mu) and same_bits(sigma_used, sigma)
        assert same_bits(got, weighted_mean_oracle(arr, mults))

    @given(
        FLOAT_LISTS,
        st.floats(-1e6, 1e6, allow_nan=False),
        st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0])),
        MULTIPLIER_SETS,
    )
    @example([1.0, 2.0], 1.0, math.nan, DEFAULT_MULTS)
    @example([1.0, 2.0], 1.0, -1.0, DEFAULT_MULTS)
    @example([1.0, 2.0], 1.0, math.inf, DEFAULT_MULTS)
    @settings(max_examples=200, deadline=None)
    def test_band_multipliers_match_oracle_any_sigma(self, values, mu, sigma, mults):
        # a negative, infinite or NaN sigma bands exactly as the masks do
        assert same_bits(
            band_multipliers(values, mu, sigma, mults),
            band_multipliers_oracle(values, mu, sigma, mults),
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
        cs = rpbmc_pairs(g1, g2, MatchConfig().ratio)
        s = match(g1, g2, Constraint.RPBMC)
        assert s.n_vertex_pairs == len(cs)
        if len(cs) >= 2:
            assert s.n_edge_pairs == len(cs) * (len(cs) - 1) // 2
        assert s.n_vertex_pairs <= match(g1, g2, Constraint.GIBMC).n_vertex_pairs

    def test_combined_blend_formula(self):
        rng = np.random.default_rng(36)
        g1, g2 = random_graph(rng, 10), random_graph(rng, 10)
        cfg = MatchConfig(ratio=1.0, blend=0.3)
        s = match(g1, g2, Constraint.GIBMC, cfg)
        if s.n_edge_pairs > 0:
            assert s.combined == pytest.approx(
                0.3 * s.vertex_weighted + 0.7 * s.edge_weighted, rel=1e-12
            )

    def test_probe_permutation_invariance(self):
        rng = np.random.default_rng(37)
        g1 = random_graph(rng, 12)
        kps = [random_keypoint(rng) for _ in range(14)]
        g2 = build_graph(kps, "p", "i")
        perm = list(rng.permutation(14))
        g2p = build_graph([kps[i] for i in perm], "p", "i")
        for constraint in Constraint:
            a = match(g1, g2, constraint)
            b = match(g1, g2p, constraint)
            assert b.combined == pytest.approx(a.combined, rel=1e-10)
            assert b.n_vertex_pairs == a.n_vertex_pairs
            assert b.n_edge_pairs == a.n_edge_pairs

    def test_too_few_vertices_rejected(self):
        rng = np.random.default_rng(38)
        g = random_graph(rng, 5)
        single = single_vertex_graph(random_keypoint(rng))
        with pytest.raises(TooFewKeypoints):
            match(single, g)
        with pytest.raises(TooFewKeypoints):
            match(g, single)

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


class TestMatchConfig:
    @pytest.mark.parametrize(
        "multipliers",
        [(0.0, 0.0, 0.0), (0.0, 0.05, 0.025), (-0.1, 0.05, 0.025),
         (math.nan, 0.05, 0.025), (0.075, math.inf, 0.025)],
    )
    def test_first_band_must_weigh(self, multipliers):
        # A zero first band leaves every weighted mean at 0/0 = NaN.
        with pytest.raises(ValueError, match="multipliers"):
            MatchConfig(multipliers=multipliers)


class TestIdentify:
    def test_rank_one_for_exact_copy(self):
        rng = np.random.default_rng(40)
        gallery = [random_graph(rng, 10, subject=f"s{k}", image="t") for k in range(5)]
        probe = build_graph(list(gallery[2].vertices), "unknown", "probe")
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
        probe = build_graph(list(near.vertices), "q", "p")
        ranked = identify(probe, [far, near], Constraint.GIBMC)
        assert ranked[0][0] == "s0"
        assert ranked[0][1].combined == 0.0

    def test_tie_breaks_lexicographic(self):
        rng = np.random.default_rng(42)
        kps = [random_keypoint(rng) for _ in range(6)]
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
