"""ROC / EER / WER metrics against independent counting oracles."""

import math

import numpy as np
import pytest

from graphsift.errors import DegenerateScores, GroupOverlap, InsufficientClaims
from graphsift.evaluation import (
    ScoreRecord,
    client_eer_stats,
    normalize_groups,
    prior_eer,
    roc,
    wer,
)


def records_from(genuine, impostor, group="G1", subject="a"):
    recs = [
        ScoreRecord(claimed_id=subject, true_id=subject, score=float(s), group=group)
        for s in genuine
    ]
    recs += [
        ScoreRecord(claimed_id=subject, true_id="zz", score=float(s), group=group)
        for s in impostor
    ]
    return recs


def far_frr_oracle(genuine, impostor, threshold):
    """Direct counting: accept iff score <= threshold."""
    fa = sum(1 for s in impostor if s <= threshold)
    fr = sum(1 for s in genuine if s > threshold)
    return fa / len(impostor), fr / len(genuine)


def prior_eer_oracle(genuine, impostor):
    """Exhaustive sweep over candidate thresholds."""
    candidates = sorted(set(genuine) | set(impostor) | {-math.inf, math.inf})
    best = None
    for t in candidates:
        far, frr = far_frr_oracle(genuine, impostor, t)
        key = (abs(far - frr), t)
        if best is None or key < best[0]:
            best = (key, t, (far + frr) / 2.0)
    return best[2], best[1]


class TestRoc:
    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(50)
        genuine = list(rng.normal(0.3, 0.1, 400))
        impostor = list(rng.normal(0.7, 0.1, 600))
        thresholds, far, frr = roc(records_from(genuine, impostor))
        assert len(thresholds) == len(set(genuine) | set(impostor)) + 2
        for arr in (thresholds, far, frr):
            assert arr.dtype == np.float64
            assert arr.shape == thresholds.shape
        for t, fa, fr in zip(thresholds.tolist(), far.tolist(), frr.tolist()):
            if math.isinf(t):
                continue
            assert (fa, fr) == far_frr_oracle(genuine, impostor, t)

    def test_sentinel_endpoints(self):
        thresholds, far, frr = roc(records_from([0.1, 0.2], [0.8, 0.9]))
        assert thresholds[0] == -math.inf
        assert (far[0], frr[0]) == (0.0, 1.0)
        assert thresholds[-1] == math.inf
        assert (far[-1], frr[-1]) == (1.0, 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(51)
        thresholds, far, frr = roc(records_from(rng.random(50), rng.random(70)))
        assert np.all(np.diff(thresholds) > 0)
        assert np.all(np.diff(far) >= 0)
        assert np.all(np.diff(frr) <= 0)

    def test_acceptance_inclusive_at_threshold(self):
        # A score exactly at the threshold is accepted, so at the shared
        # value 0.5 every impostor is (wrongly) accepted and every
        # genuine claim (rightly) accepted.
        thresholds, far, frr = roc(records_from([0.5], [0.5]))
        (at,) = np.flatnonzero(thresholds == 0.5)
        assert (far[at], frr[at]) == (1.0, 0.0)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateScores):
            roc(records_from([0.1], []))
        with pytest.raises(DegenerateScores):
            roc(records_from([], [0.9]))


class TestPriorEer:
    def test_matches_sweep_oracle_random(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            genuine = list(rng.normal(0.4, 0.15, int(rng.integers(5, 60))))
            impostor = list(rng.normal(0.6, 0.15, int(rng.integers(5, 60))))
            eer, thr = prior_eer(records_from(genuine, impostor))
            want_eer, want_thr = prior_eer_oracle(genuine, impostor)
            assert thr == want_thr
            assert eer == pytest.approx(want_eer, abs=1e-9)

    def test_perfect_separation_is_zero(self):
        eer, thr = prior_eer(records_from([0.1, 0.2, 0.3], [0.7, 0.8]))
        assert eer == 0.0
        assert 0.3 <= thr < 0.7

    def test_inverted_scores_hand_case(self):
        # genuine {0.6}, impostor {0.4}: threshold 0.4 accepts the
        # impostor and rejects the genuine claim, FAR = FRR = 1.
        eer, thr = prior_eer(records_from([0.6], [0.4]))
        assert eer == 1.0
        assert thr == 0.4

    def test_tie_takes_smaller_threshold(self):
        # genuine = impostor = {0.5}: |FAR - FRR| is 1 at every sweep
        # point, so the tie resolves to the smallest threshold.
        eer, thr = prior_eer(records_from([0.5], [0.5]))
        assert eer == 0.5
        assert thr == -math.inf


class TestClientStats:
    def build(self):
        recs = records_from([0.1, 0.2], [0.8, 0.9], subject="a")
        recs += records_from([0.3], [0.6, 0.7], subject="b")
        return recs

    def test_per_subject_threshold_separates(self):
        stats = client_eer_stats(self.build())
        assert set(stats) == {"a", "b"}
        for subject, (eer, thr) in stats.items():
            assert eer == 0.0
            assert thr < 0.6

    def test_missing_claim_class_rejected(self):
        recs = records_from([0.1], [0.9], subject="a")
        recs += [ScoreRecord("b", "b", 0.2, "G1")]  # genuine only
        with pytest.raises(InsufficientClaims) as err:
            client_eer_stats(recs)
        assert err.value.subject_id == "b"


class TestWer:
    def test_identity_at_unit_ratio(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            far, frr = rng.random(), rng.random()
            assert wer(far, frr, 1.0) == pytest.approx(
                (far + frr) / 2.0, rel=1e-12
            )

    def test_hand_value(self):
        # (0.2 + 10 * 0.01) / 11
        assert wer(0.01, 0.2, 10.0) == pytest.approx(0.3 / 11.0, rel=1e-12)

    def test_limits_weight_far_and_frr(self):
        far, frr = 0.4, 0.1
        assert wer(far, frr, 10.0) > wer(far, frr, 1.0) > wer(far, frr, 0.1)
        assert wer(0.0, 0.0, 0.1) == 0.0
        assert wer(1.0, 1.0, 5.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wer(1.2, 0.1, 1.0)
        with pytest.raises(ValueError):
            wer(0.1, -0.1, 1.0)
        with pytest.raises(ValueError):
            wer(0.1, 0.1, 0.0)
        # (frr + r * far) / (1 + r) is NaN for either
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match="cost ratio"):
                wer(0.1, 0.2, r)


class TestGroups:
    def test_normalize_accepts_mapping_and_pairs(self):
        want = {"a": "G1", "b": "G2"}
        assert normalize_groups(want) == want
        assert normalize_groups([("a", "G1"), ("b", "G2")]) == want

    def test_duplicate_consistent_is_fine(self):
        assert normalize_groups([("a", "G1"), ("a", "G1")]) == {"a": "G1"}

    def test_overlap_rejected(self):
        with pytest.raises(GroupOverlap):
            normalize_groups([("a", "G1"), ("a", "G2")])

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            normalize_groups({"a": "G3"})
