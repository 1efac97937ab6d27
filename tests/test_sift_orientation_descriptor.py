"""Orientation assignment and descriptors against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsift import sift
from graphsift.corpus import render_texture, subject_texture
from graphsift.imageio import GrayImage, histogram_equalize
from graphsift.sift import (
    LocalizedPoint,
    _normalize_descriptors,
    assign_orientations,
    build_scale_space,
    compute_descriptor,
    detect_keypoints,
    extract_features,
    localize_keypoint,
)

from conftest import wrap_angle


def orientation_histogram_oracle(img, x_oct, y_oct, scale_oct, n_bins):
    """Scalar reimplementation: Gaussian-weighted gradient histogram,
    1.5x-scale window, 3-sigma radius, border gradients excluded,
    circular [1 4 6 4 1]/16 smoothing."""
    h, w = img.shape
    sigma_w = 1.5 * scale_oct
    radius = int(round(3.0 * sigma_w))
    cx, cy = int(round(x_oct)), int(round(y_oct))
    raw = [0.0] * n_bins
    for yy in range(cy - radius, cy + radius + 1):
        for xx in range(cx - radius, cx + radius + 1):
            if not (1 <= yy <= h - 2 and 1 <= xx <= w - 2):
                continue
            dx = float(img[yy, xx + 1]) - float(img[yy, xx - 1])
            dy = float(img[yy + 1, xx]) - float(img[yy - 1, xx])
            mag = math.hypot(dx, dy)
            theta = math.atan2(dy, dx)
            weight = math.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma_w**2)
            )
            b = int(np.rint(theta * n_bins / (2.0 * math.pi))) % n_bins
            raw[b] += weight * mag
    return [
        (
            raw[(i - 2) % n_bins]
            + 4.0 * raw[(i - 1) % n_bins]
            + 6.0 * raw[i]
            + 4.0 * raw[(i + 1) % n_bins]
            + raw[(i + 2) % n_bins]
        )
        / 16.0
        for i in range(n_bins)
    ]


def finalize_oracle(vec, clamp):
    """Reference normalization: np.linalg.norm and a full max scan on
    every clamp-and-renormalize round."""
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return None
    vec = vec / norm
    for _ in range(512):
        if vec.max() <= clamp + 1e-7:
            break
        np.minimum(vec, clamp, out=vec)
        vec /= np.linalg.norm(vec)
    if vec.max() > clamp + 1e-6:
        return None
    return vec.astype(np.float32)


def normalized(raw):
    """One raw histogram through the per-image normalizer: its float32
    unit row, or None when the normalizer drops it."""
    kept, unit = _normalize_descriptors(raw[None])
    return unit[0] if kept.size else None


def descriptor_histogram_oracle(ss, point, orientation):
    """Reference raw descriptor, before normalization: gradients over
    the whole square window, masked afterwards, and one np.add.at
    scatter per trilinear corner and orientation neighbour. None when
    the window leaves the image."""
    img = ss.octaves[point.octave][point.layer]
    h, w = img.shape
    d = sift._DESCRIPTOR_GRID
    n_bins = sift._DESCRIPTOR_BINS
    hist_width = 3.0 * point.scale_oct
    half = int(round(hist_width * math.sqrt(2.0) * (d + 1) * 0.5))
    cx = int(round(point.x_oct))
    cy = int(round(point.y_oct))
    if cx - half < 1 or cx + half > w - 2 or cy - half < 1 or cy + half > h - 2:
        return None

    offs = np.arange(-half, half + 1)
    oy, ox = np.meshgrid(offs, offs, indexing="ij")
    cos_t = math.cos(orientation)
    sin_t = math.sin(orientation)
    u = (ox * cos_t + oy * sin_t) / hist_width
    v = (-ox * sin_t + oy * cos_t) / hist_width
    ubin = u + 0.5 * d - 0.5
    vbin = v + 0.5 * d - 0.5
    keep = (ubin > -1) & (ubin < d) & (vbin > -1) & (vbin < d)

    rows = cy + oy
    cols = cx + ox
    dx = img[rows, cols + 1].astype(np.float64) - img[rows, cols - 1].astype(np.float64)
    dy = img[rows + 1, cols].astype(np.float64) - img[rows - 1, cols].astype(np.float64)
    mag = np.hypot(dx, dy)
    theta = np.arctan2(dy, dx)
    weight = np.exp(-(u * u + v * v) / (2.0 * (0.5 * d) ** 2))
    obin = ((theta - orientation) % (2.0 * math.pi)) * (n_bins / (2.0 * math.pi))

    ub = ubin[keep]
    vb = vbin[keep]
    ob = obin[keep]
    m = (weight * mag)[keep]

    u0 = np.floor(ub).astype(np.int64)
    v0 = np.floor(vb).astype(np.int64)
    o0 = np.floor(ob).astype(np.int64)
    fu = ub - u0
    fv = vb - v0
    fo = ob - o0
    o0 %= n_bins
    o1 = (o0 + 1) % n_bins

    tensor = np.zeros((d + 2, d + 2, n_bins))
    for dv, wv in ((0, 1.0 - fv), (1, fv)):
        for du, wu in ((0, 1.0 - fu), (1, fu)):
            base = m * wv * wu
            np.add.at(tensor, (v0 + 1 + dv, u0 + 1 + du, o0), base * (1.0 - fo))
            np.add.at(tensor, (v0 + 1 + dv, u0 + 1 + du, o1), base * fo)

    return tensor[1:-1, 1:-1, :].reshape(-1)


@st.composite
def histogram_vectors(draw):
    """Non-negative 128-vectors of one of four kinds: all zero, fewer
    than 25 nonzero entries (never within the clamp at unit norm), 100
    or more entries in [1, 1.5] (already within the clamp: the largest
    unit entry is at most 0.15), or any 0 to 128 nonzero entries."""
    kind = draw(st.sampled_from(["zero", "sparse", "flat", "any"]))
    k = draw({"zero": st.just(0), "sparse": st.integers(1, 24),
              "flat": st.integers(100, 128), "any": st.integers(0, 128)}[kind])
    low, high = (1.0, 1.5) if kind == "flat" else (1e-6, 1e3)
    values = draw(
        st.lists(
            st.floats(low, high, allow_subnormal=False), min_size=k, max_size=k
        )
    )
    where = draw(st.permutations(range(128)))[:k]
    vec = np.zeros(128)
    vec[where] = values
    return vec


def ramp_image(size, horizontal=True):
    ramp = np.clip(4 * np.arange(size), 0, 255).astype(np.uint8)
    pixels = np.tile(ramp, (size, 1)) if horizontal else np.tile(ramp[:, None], (1, size))
    return GrayImage(pixels)


def center_point(ss, layer=1):
    h, w = ss.octaves[0][layer].shape
    sigma = sift._BASE_SIGMA * 2.0 ** (layer / sift._SCALES_PER_OCTAVE)
    return LocalizedPoint(octave=0, layer=layer, x_oct=w / 2, y_oct=h / 2, scale_oct=sigma)


class TestOrientation:
    def test_horizontal_ramp_orientation_zero(self):
        ss = build_scale_space(ramp_image(32))
        orientations = assign_orientations(ss, center_point(ss))
        assert len(orientations) == 1
        o = orientations[0]
        assert min(o, 2.0 * math.pi - o) < 0.1

    def test_vertical_ramp_orientation_quarter_turn(self):
        ss = build_scale_space(ramp_image(32, horizontal=False))
        orientations = assign_orientations(ss, center_point(ss))
        assert len(orientations) == 1
        assert abs(orientations[0] - math.pi / 2) < 0.1

    def test_peaks_validated_by_oracle(self):
        img = render_texture(subject_texture(11, 3, 64), 64)
        ss = build_scale_space(img)
        checked = 0
        for cand in detect_keypoints(ss)[:40]:
            loc = localize_keypoint(ss, cand)
            if not isinstance(loc, LocalizedPoint):
                continue
            hist = orientation_histogram_oracle(
                ss.octaves[loc.octave][loc.layer],
                loc.x_oct, loc.y_oct, loc.scale_oct, sift._ORIENTATION_BINS,
            )
            peak = max(hist)
            if peak <= 0.0:
                continue
            for theta in assign_orientations(ss, loc):
                b = int(np.rint(theta * sift._ORIENTATION_BINS / (2 * math.pi)))
                b %= sift._ORIENTATION_BINS
                assert hist[b] >= sift._PEAK_RATIO * peak * (1.0 - 1e-9)
                checked += 1
        assert checked >= 10

    def test_flat_window_gives_zero(self):
        # no gradient gives the all-zero histogram: it has no strict peak,
        # and its first bin interpolates to orientation 0.0
        flat = GrayImage(np.full((32, 32), 90, dtype=np.uint8))
        ss = build_scale_space(flat)
        assert assign_orientations(ss, center_point(ss)) == [0.0]

    def test_window_outside_plane_gives_zero(self):
        # a window wholly outside the plane holds no gradient and gives
        # the all-zero histogram; slicing it would wrap the negative ends
        ss = build_scale_space(ramp_image(64))
        far = LocalizedPoint(octave=1, layer=1, x_oct=-50.0, y_oct=-50.0, scale_oct=1.6)
        assert assign_orientations(ss, far) == [0.0]

    def test_plateau_maximum_is_interpolated(self, monkeypatch):
        # the maximum spans bins 10 and 11, so it is no strict peak, and
        # the one strict peak (bin 20) is below 80% of it: the first
        # maximum bin is kept and refined like a peak, to bin 10.5
        hist = np.zeros(36)
        hist[[9, 10, 11, 12, 20]] = [1.0, 4.0, 4.0, 1.0, 2.0]
        monkeypatch.setattr(sift, "_orientation_histogram", lambda *args: hist)
        ss = build_scale_space(ramp_image(32))
        got = assign_orientations(ss, center_point(ss))
        assert got == [pytest.approx(10.5 * 2.0 * math.pi / 36, abs=1e-12)]

    def test_orientation_range(self):
        img = histogram_equalize(render_texture(subject_texture(11, 4, 64), 64))
        theta = extract_features(img).rows[:, 3]
        assert np.all((0.0 <= theta) & (theta < 2.0 * math.pi))


class TestDescriptor:
    @pytest.mark.parametrize("size", [64, 128])
    @pytest.mark.parametrize("seed,subject", [(12, 0), (13, 2)])
    def test_matches_full_window_oracle(self, seed, subject, size):
        # the raw histogram is compared too: the float32 result can hide
        # a float64 sum taken in another order
        clamp = sift._DESCRIPTOR_CLAMP
        img = histogram_equalize(
            render_texture(subject_texture(seed, subject, size), size)
        )
        ss = build_scale_space(img)
        octaves = set()
        dropped = 0
        for cand in detect_keypoints(ss):
            loc = localize_keypoint(ss, cand)
            if not isinstance(loc, LocalizedPoint):
                continue
            for theta in assign_orientations(ss, loc):
                raw = compute_descriptor(ss, loc, theta)
                want_raw = descriptor_histogram_oracle(ss, loc, theta)
                if want_raw is None:
                    assert raw is None
                    dropped += 1
                    continue
                assert np.array_equal(raw, want_raw)
                got = normalized(raw)
                want = finalize_oracle(want_raw, clamp)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and np.array_equal(got, want)
                    octaves.add(loc.octave)
        assert dropped >= 1
        # doubled, a 64-px input keeps descriptors in two octaves or more
        assert len(octaves) >= 2

    @pytest.mark.parametrize("orientation", [0.0, 1e-17])
    def test_orientation_bin_wraps_at_full_turn(self, orientation):
        # every row of a horizontal ramp is equal, so each gradient points
        # along theta = 0 exactly; one 1e-17 past it, theta - orientation
        # taken modulo 2 pi rounds up to a full turn, the bin index
        # reaches n_bins, and that sample must land in bin 0 of its cell
        ss = build_scale_space(ramp_image(32))
        point = center_point(ss)
        raw = compute_descriptor(ss, point, orientation)
        want = descriptor_histogram_oracle(ss, point, orientation)
        assert raw.tobytes() == want.tobytes()
        assert np.count_nonzero(raw) > 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(histogram_vectors(), max_size=40))
    def test_finalize_matches_oracle(self, vecs):
        # the whole stack is normalized at once, as extract_features
        # does per image; each row must come out as the one-vector
        # oracle gives it, byte for byte, and drop where it drops
        raw = np.array(vecs).reshape(-1, 128)
        kept, unit = _normalize_descriptors(raw.copy())
        want = [finalize_oracle(vec.copy(), 0.2) for vec in raw]
        assert kept.tolist() == [i for i, w in enumerate(want) if w is not None]
        assert unit.dtype == np.float32 and unit.shape == (len(kept), 128)
        for i, got in zip(kept.tolist(), unit):
            assert got.tobytes() == want[i].tobytes()
        # fewer than 1/clamp**2 = 25 nonzero entries cannot meet both
        # the unit-norm and the clamp contract
        sparse = np.flatnonzero(np.count_nonzero(raw, axis=1) < 25)
        assert not set(sparse.tolist()) & set(kept.tolist())

    def test_vecdot_sums_like_ndarray_dot(self):
        # the normalizer takes every row's squared norm with np.vecdot in
        # place of one ndarray.dot per row; a numpy whose vecdot sums in
        # another order changes descriptor bytes, and must fail here
        rng = np.random.default_rng(5)
        rows = [
            rng.random((2000, 128)),
            rng.standard_normal((1000, 128)) * 10.0 ** rng.integers(-150, 150, (1000, 1)),
            np.where(rng.random((1000, 128)) < 0.2, rng.random((1000, 128)), 0.0),
            rng.random((1000, 128)).astype(np.float32).astype(np.float64),
        ]
        img = histogram_equalize(render_texture(subject_texture(12, 0, 128), 128))
        ss = build_scale_space(img)
        real = []
        for cand in detect_keypoints(ss):
            loc = localize_keypoint(ss, cand)
            if isinstance(loc, LocalizedPoint):
                for theta in assign_orientations(ss, loc):
                    raw = compute_descriptor(ss, loc, theta)
                    if raw is not None:
                        real.append(raw)
        assert len(real) >= 40
        rows.append(np.array(real))
        for stack in rows:
            want = np.array([row.dot(row) for row in stack])
            assert np.vecdot(stack, stack).tobytes() == want.tobytes()

    def test_contracts_on_texture(self):
        img = histogram_equalize(render_texture(subject_texture(12, 0, 64), 64))
        kps = extract_features(img)
        assert len(kps) > 0
        for desc in kps.descriptors:
            assert desc.shape == (128,)
            assert desc.dtype == np.float32
            assert abs(float(np.linalg.norm(desc)) - 1.0) < 1e-6
            assert float(desc.min()) >= 0.0
            assert float(desc.max()) <= 0.2 + 1e-6

    def test_window_exceeding_image_dropped(self):
        img = render_texture(subject_texture(12, 1, 32), 32)
        ss = build_scale_space(img)
        near_border = LocalizedPoint(octave=0, layer=1, x_oct=5.0, y_oct=5.0, scale_oct=3.0)
        assert compute_descriptor(ss, near_border, 0.0) is None
        centered = LocalizedPoint(octave=0, layer=1, x_oct=32.0, y_oct=32.0, scale_oct=1.8)
        assert compute_descriptor(ss, centered, 0.0) is not None

    def test_uniform_gain_invariance(self):
        base = render_texture(subject_texture(12, 2, 64), 64)
        even = (base.pixels.astype(np.int32) // 2 * 2).clip(0, 160).astype(np.uint8)
        gained = (even.astype(np.int32) * 3 // 2).astype(np.uint8)  # exactly 1.5x
        ss1 = build_scale_space(GrayImage(even))
        ss2 = build_scale_space(GrayImage(gained))
        compared = 0
        for cand in detect_keypoints(ss1):
            loc = localize_keypoint(ss1, cand)
            if not isinstance(loc, LocalizedPoint):
                continue
            for theta in assign_orientations(ss1, loc):
                raw1 = compute_descriptor(ss1, loc, theta)
                raw2 = compute_descriptor(ss2, loc, theta)
                if raw1 is None or raw2 is None:
                    continue
                d1 = normalized(raw1)
                d2 = normalized(raw2)
                if d1 is None or d2 is None:
                    continue
                assert float(np.abs(d1 - d2).max()) < 1e-3
                compared += 1
        assert compared >= 5

    def test_rotation_60_degrees_descriptor_stability(self):
        # Pair keypoints geometrically AND by the expected orientation shift:
        # a spot with several dominant gradient directions yields one keypoint
        # per direction, and only the matching branch should be compared.
        tex = subject_texture(11, 0, 128)
        angle = math.radians(60.0)
        base = extract_features(histogram_equalize(render_texture(tex, 128)))
        warped = extract_features(
            histogram_equalize(render_texture(tex, 128, rotation=angle))
        )
        c = (128 - 1) / 2.0
        cos_a, sin_a = math.cos(angle), math.sin(angle)
        wx, wy, wo = warped.rows[:, [0, 1, 3]].T.tolist()
        close = total = 0
        for i, (x, y, o) in enumerate(
            zip(*base.rows[:, [0, 1, 3]].T.tolist())
        ):
            px = cos_a * (x - c) - sin_a * (y - c) + c
            py = sin_a * (x - c) + cos_a * (y - c) + c
            if not (10 < px < 118 and 10 < py < 118):
                continue
            cands = [
                j for j in range(len(warped))
                if math.hypot(wx[j] - px, wy[j] - py) < 2.0
                and abs(wrap_angle(wo[j] - o - angle)) < 0.4
            ]
            if not cands:
                continue
            total += 1
            dist = min(
                float(np.linalg.norm(base.descriptors[i] - warped.descriptors[j]))
                for j in cands
            )
            close += dist < 0.6
        assert total >= 10
        assert close / total >= 0.8
