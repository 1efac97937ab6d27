"""End-to-end feature extraction invariants."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsift import sift, store
from graphsift.config import DetectorConfig
from graphsift.corpus import render_texture, subject_texture
from graphsift.errors import ImageTooSmall
from graphsift.imageio import GrayImage, histogram_equalize
from graphsift.sift import (
    DESCRIPTOR_LEN,
    ROW_LEN,
    Keypoints,
    Rejection,
    _sort_unique,
    build_scale_space,
    detect_keypoints,
    extract_features,
)


def texture_image(subject, image, size=64):
    return histogram_equalize(render_texture(subject_texture(21, subject, size), size))


class TestExtractFeatures:
    def test_deterministic_bit_for_bit(self):
        img = texture_image(0, 0)
        a, b = extract_features(img), extract_features(img)
        assert len(a) > 0
        assert a == b
        assert a.rows.tobytes() == b.rows.tobytes()

    def test_constant_image_yields_nothing(self):
        img = GrayImage(np.full((64, 64), 90, dtype=np.uint8))
        assert extract_features(img) == Keypoints(np.empty((0, ROW_LEN)))

    def test_too_small_image_rejected(self):
        with pytest.raises(ImageTooSmall):
            extract_features(GrayImage(np.zeros((15, 40), dtype=np.uint8)))

    @pytest.mark.parametrize("subject", range(4))
    def test_keypoint_count_reasonable(self, subject):
        kps = extract_features(texture_image(subject, 0, size=128))
        assert 20 <= len(kps) <= 500

    def test_keypoints_in_bounds_sorted_unique(self):
        img = texture_image(1, 1)
        kps = extract_features(img)
        keys = list(map(tuple, kps.rows[:, [1, 0, 2, 3]].tolist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        x, y = kps.rows[:, 0], kps.rows[:, 1]
        assert np.all((0.0 <= x) & (x < img.width))
        assert np.all((0.0 <= y) & (y < img.height))
        assert np.all(kps.scale > 0.0)

    def test_translation_equivariance(self):
        # raw renders: contrast equalization uses a global histogram, so it
        # would respond to the content shifted out of / into frame
        tex = subject_texture(3, 0, 128)
        base = GrayImage(render_texture(tex, 128).pixels)
        moved = GrayImage(
            render_texture(tex, 128, translation=(16.0, 8.0)).pixels
        )
        kp_base = extract_features(base)
        kp_moved = extract_features(moved)
        moved_xy = kp_moved.rows[:, :2].tolist()
        margin = 24.0  # ignore content near borders where windows differ
        interior = [
            (x, y) for x, y in kp_base.rows[:, :2].tolist()
            if margin < x < 128 - margin - 16 and margin < y < 128 - margin - 8
        ]
        matched = 0
        for x, y in interior:
            if any(
                np.hypot(mx - (x + 16.0), my - (y + 8.0)) < 1.0
                for mx, my in moved_xy
            ):
                matched += 1
        assert len(interior) >= 10
        assert matched >= 0.8 * len(interior)

    def test_float32_scalar_fields(self):
        rows = extract_features(texture_image(2, 2)).rows
        assert rows.dtype == np.float32 and rows.shape[1] == ROW_LEN
        assert rows.flags.c_contiguous and not rows.flags.writeable


@pytest.mark.parametrize("shape", [(3, ROW_LEN - 1), (3, ROW_LEN + 1), (ROW_LEN,)])
def test_keypoints_of_another_shape_rejected(shape):
    with pytest.raises(ValueError, match=rf"must be \(n, {ROW_LEN}\), got"):
        Keypoints(np.zeros(shape, dtype=np.float32))


# sha256 of extract_features(...).rows.tobytes(), keyed by (subject,
# size). A speed-up of the pipeline must leave every byte of these
# tables as it is; the digests rest on OpenBLAS's ddot summation order
# and numpy's SIMD loops, which CI prints before the tests.
KEYPOINT_TABLE_SHA256 = {
    (0, 64): "a7ad2dce9b083e76dfdc7927a0e9817e54f7b66b9d3c5486fe1ffdd02af4cff6",
    (1, 128): "c52c8c1d28c7a22e87be008f4c179af10e49cc0a4dd41c0af22d4814c14d18f7",
    (2, 256): "a7300531198c4970a7b3978a8542f1aec0d9df06e0c13177434aded49cebc595",
}


def test_keypoint_tables_pinned():
    for (subject, size), want in KEYPOINT_TABLE_SHA256.items():
        rows = extract_features(texture_image(subject, 0, size)).rows
        assert hashlib.sha256(rows.tobytes()).hexdigest() == want, (subject, size)


def test_stage_call_shapes(monkeypatch):
    # the benchmark's tracer wraps these three functions by name and
    # counts one call per candidate, per accepted point and per
    # oriented point; batching any of them would silently change what
    # its per-layer counts mean
    calls = {"localize": 0, "orientation": 0, "descriptor": 0}
    accepted = oriented = 0

    def wrap(name, fn):
        def counted(*args, **kwargs):
            nonlocal accepted, oriented
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "localize":
                accepted += not isinstance(out, Rejection)
            elif name == "orientation":
                oriented += len(out)
            return out

        return counted

    monkeypatch.setattr(sift, "localize_keypoint", wrap("localize", sift.localize_keypoint))
    monkeypatch.setattr(sift, "assign_orientations", wrap("orientation", sift.assign_orientations))
    monkeypatch.setattr(sift, "compute_descriptor", wrap("descriptor", sift.compute_descriptor))
    img = texture_image(1, 0, 128)
    candidates = len(detect_keypoints(build_scale_space(img)))
    kps = extract_features(img)
    assert 0 < len(kps) and 0 < accepted < candidates
    assert calls["localize"] == candidates
    assert calls["orientation"] == accepted
    assert calls["descriptor"] == oriented


def sort_unique_oracle(rows):
    """Per-keypoint reference: a stable Python sort on the
    (y, x, scale, orientation) tuple of Python floats, then the first
    keypoint of each run of equal keys."""
    records = sorted(rows.tolist(), key=lambda r: (r[1], r[0], r[2], r[3]))
    kept = []
    last_key = None
    for r in records:
        key = (r[1], r[0], r[2], r[3])
        if key != last_key:
            kept.append(r)
            last_key = key
    return kept


# a small float grid makes exact key ties common; -0.0 must tie with 0.0
GRID = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(GRID, GRID, GRID, GRID),
            st.integers(0, 3),
            st.integers(0, 2),
        ),
        max_size=40,
    )
)
def test_sort_unique_matches_tuple_sort(draws):
    # each draw is (key, descriptor id, copies): copies repeat the
    # whole row, and equal keys with other descriptor ids are key ties
    # that keep their first row
    rows = np.zeros((0, ROW_LEN), dtype=np.float32)
    for key, desc_id, copies in draws:
        row = np.full(ROW_LEN, desc_id, dtype=np.float32)
        row[:4] = key
        rows = np.vstack([rows] + [row] * (copies + 1))
    got = _sort_unique(rows)
    want = np.array(sort_unique_oracle(rows), dtype=np.float32).reshape(-1, ROW_LEN)
    # bytes, not values: -0.0 == 0.0, and the kept row must be the
    # first of its run, sign of zero included
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid,bins", [(2, 8), (4, 4), (3, 8), (5, 8)])
def test_descriptor_length_must_fit_the_store(grid, bins):
    # the descriptor shape is fixed: the gallery store reads back
    # exactly DESCRIPTOR_LEN floats per descriptor, and nothing takes
    # another grid or bin count
    assert sift._DESCRIPTOR_GRID**2 * sift._DESCRIPTOR_BINS == DESCRIPTOR_LEN
    with pytest.raises(TypeError):
        DetectorConfig(descriptor_grid=grid, descriptor_bins=bins)


# the detector's values as the text its digest hashed when they were
# settable
DEFAULT_TEXT = (
    "scales_per_octave=3\nbase_sigma=1.6\nassumed_blur=0.5\ndouble_input=true\n"
    "max_octaves=0\ncontrast_threshold=0.03\nedge_ratio=10.0\n"
    "orientation_bins=36\npeak_ratio=0.8\ndescriptor_grid=4\n"
    "descriptor_bins=8\ndescriptor_clamp=0.2\n"
)


class TestDetectorConfig:
    def test_digest_and_text_pinned(self):
        # galleries on disk carry this digest; a change here makes
        # every one of them fail the load's digest check
        h = hashlib.blake2b(DEFAULT_TEXT.encode("utf-8"), digest_size=8)
        assert store.DETECTOR_DIGEST == int.from_bytes(h.digest(), "little")
        assert DetectorConfig().digest() == store.DETECTOR_DIGEST
        # a stored keypoint row: x, y, scale, orientation, descriptor
        assert DESCRIPTOR_LEN == 128
        assert ROW_LEN == 132

    @pytest.mark.parametrize(
        "name",
        ["scales_per_octave", "base_sigma", "assumed_blur", "double_input",
         "max_octaves", "contrast_threshold", "edge_ratio", "orientation_bins",
         "peak_ratio", "descriptor_grid", "descriptor_bins", "descriptor_clamp"],
    )
    def test_fixed_constants_not_settable(self, name):
        # the values are sift's constants: the name the benchmark
        # imports carries none of them, and takes none
        assert not hasattr(DetectorConfig(), name)
        with pytest.raises(TypeError):
            DetectorConfig(**{name: 0})


def test_extraction_memory_peak():
    # the live peak of one extraction is the Gaussian pyramid plus the
    # three DoG planes the extrema scan holds at a time; the margin is
    # one more octave-0 plane for the scan's |DoG| temporary, a quarter
    # plane for its boolean mask and a quarter plane for the index and
    # value arrays of the strong voxels. Holding the whole DoG stack, or
    # a fourth DoG plane through the scan, breaks the bound.
    img = texture_image(2, 0, 256)
    gauss = build_scale_space(img).octaves
    # the first layer of every octave above 0 is a view into the octave
    # below, which owns its memory
    pyramid = sum(a.nbytes for octave in gauss for a in octave if a.base is None)
    plane = gauss[0][0].nbytes
    bound = pyramid + 3 * plane + plane + plane // 4 + plane // 4
    del gauss
    extract_features(img)  # load scipy.ndimage outside the traced call
    tracemalloc.start()
    try:
        extract_features(img)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
