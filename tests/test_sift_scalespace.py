"""Scale-space construction against closed-form Gaussian oracles."""

import math
import threading
import time

import numpy as np
import pytest
from scipy import ndimage

from graphsift import sift
from graphsift.errors import ImageTooSmall
from graphsift.imageio import GrayImage
from graphsift.sift import build_scale_space


def impulse_center_value(layer: int) -> float:
    """Closed-form Gaussian-layer value at a unit impulse's center, octave 0.

    Doubling turns the impulse into a bilinear tent: 1 at its center,
    1/2 beside it and 1/4 on the diagonals, in doubled pixels. The
    doubled input is credited with twice assumed_blur, so the pipeline's
    blur relative to the tent at layer k has variance sigma_k^2 -
    (2 assumed_blur)^2; the center value is the tent's nine samples
    weighted by a 2-D Gaussian of that variance.
    """
    sigma_abs = sift._BASE_SIGMA * 2.0 ** (layer / sift._SCALES_PER_OCTAVE)
    var = sigma_abs**2 - (2.0 * sift._ASSUMED_BLUR) ** 2
    tent = {-1: 0.5, 0: 1.0, 1: 0.5}
    total = sum(
        tent[dx] * tent[dy] * math.exp(-(dx * dx + dy * dy) / (2.0 * var))
        for dx in tent
        for dy in tent
    )
    return total / (2.0 * math.pi * var)


def impulse_image() -> GrayImage:
    # doubled, its center pixel (16, 16) lands on (32, 32)
    pixels = np.zeros((33, 33), dtype=np.uint8)
    pixels[16, 16] = 255  # becomes amplitude 1.0 after the /255 mapping
    return GrayImage(pixels)


def test_too_small_raises():
    img = GrayImage(np.zeros((15, 15), dtype=np.uint8))
    with pytest.raises(ImageTooSmall):
        build_scale_space(img)


def test_minimum_size_builds():
    img = GrayImage(np.random.default_rng(0).integers(0, 256, (16, 16), dtype=np.uint8))
    ss = build_scale_space(img)
    # doubled to 32: floor(log2(32 / 8)) + 1, so the smallest input
    # still gets three octaves
    assert len(ss.octaves) == 3


def test_constant_image_zero_dog():
    img = GrayImage(np.full((32, 32), 137, dtype=np.uint8))
    ss = build_scale_space(img)
    for gauss in ss.octaves:
        for k in range(len(gauss) - 1):
            assert np.all(gauss[k + 1] - gauss[k] == 0.0)


def test_impulse_matches_closed_form():
    # the DoG center value is the difference of the two neighboring
    # Gaussian layers' center values
    gauss = build_scale_space(impulse_image()).octaves[0]
    for layer in range(sift._SCALES_PER_OCTAVE + 2):
        got = float(gauss[layer + 1][32, 32] - gauss[layer][32, 32])
        want = impulse_center_value(layer + 1) - impulse_center_value(layer)
        assert got == pytest.approx(want, abs=1e-4), f"layer {layer}"


def test_layer_counts_and_octave_halving():
    img = GrayImage(np.random.default_rng(1).integers(0, 256, (64, 48), dtype=np.uint8))
    ss = build_scale_space(img)
    s = sift._SCALES_PER_OCTAVE
    for o, gauss in enumerate(ss.octaves):
        # s + 3 Gaussian layers give the s + 2 DoG layers whose middle s
        # are scanned for extrema
        assert len(gauss) == s + 3
        assert {g.shape for g in gauss} == {gauss[0].shape}
        if o > 0:
            prev = ss.octaves[o - 1][0].shape
            assert gauss[0].shape == ((prev[0] + 1) // 2, (prev[1] + 1) // 2)


def test_octave_count_formula():
    img = GrayImage(np.zeros((128, 128), dtype=np.uint8))
    ss = build_scale_space(img)
    # doubled input: 256 -> floor(log2(256 / 8)) + 1
    assert len(ss.octaves) == 6


def test_sigma_schedule():
    # Gaussian layer k carries absolute blur base_sigma * 2**(k/s), so
    # layer s has twice the base blur; an impulse's center value reads
    # each layer's blur off the stack
    ss = build_scale_space(impulse_image())
    assert len(ss.octaves[0]) == sift._SCALES_PER_OCTAVE + 3
    for k, layer in enumerate(ss.octaves[0]):
        want = impulse_center_value(k)
        assert float(layer[32, 32]) == pytest.approx(want, rel=1e-3), f"layer {k}"


def test_pixel_scale_accounts_for_doubling():
    img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
    ss = build_scale_space(img)
    assert ss.pixel_scale(0) == 0.5
    assert ss.pixel_scale(2) == 2.0


# an octave's blurs, rounded: the base image's, then the five increments
OCTAVE_SIGMAS = (1.249, 1.226, 1.545, 1.946, 2.452, 3.089)


@pytest.mark.parametrize(
    "shape", [(513, 389), (389, 513), (363, 361), (256, 256), (17, 33)]
)
def test_blur_in_halves_is_gaussian_filter_byte_for_byte(shape):
    # the first two split, with odd sides making the halves unequal; the
    # rest are below _SPLIT_MIN_PIXELS, (363, 361) by 29 pixels, and run
    # whole
    plane = np.random.default_rng(3).random(shape, dtype=np.float32)
    for sigma in OCTAVE_SIGMAS:
        want = ndimage.gaussian_filter(plane, sigma, mode="mirror", truncate=4.0)
        got = sift._blur(plane, sigma)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), sigma


def _on_helper() -> bool:
    return threading.current_thread().name.startswith("graphsift-blur")


def test_blur_in_halves_raises_the_helpers_error(monkeypatch):
    filter1d = ndimage.gaussian_filter1d

    def failing_on_helper(*args, **kwargs):
        if _on_helper():
            raise MemoryError("helper half")
        return filter1d(*args, **kwargs)

    monkeypatch.setattr(ndimage, "gaussian_filter1d", failing_on_helper)
    monkeypatch.setattr(sift, "_SPLIT_MIN_PIXELS", 1)
    with pytest.raises(MemoryError, match="helper half"):
        sift._blur(np.ones((40, 30), dtype=np.float32), 1.5)


def test_blur_in_halves_waits_for_the_helper_before_raising(monkeypatch):
    filter1d = ndimage.gaussian_filter1d
    finished = []

    def slow_helper_failing_caller(*args, **kwargs):
        if not _on_helper():
            raise MemoryError("caller half")
        time.sleep(0.2)
        finished.append(filter1d(*args, **kwargs))

    monkeypatch.setattr(ndimage, "gaussian_filter1d", slow_helper_failing_caller)
    monkeypatch.setattr(sift, "_SPLIT_MIN_PIXELS", 1)
    with pytest.raises(MemoryError, match="caller half"):
        sift._blur(np.ones((40, 30), dtype=np.float32), 1.5)
    assert len(finished) == 1


def _random_image(side: int) -> GrayImage:
    pixels = np.random.default_rng(5).integers(0, 256, (side, side), dtype=np.uint8)
    return GrayImage(pixels)


def test_large_scale_space_builds_upper_octaves_on_the_helper(monkeypatch):
    # a 256-px image: octave 0 is 512x512, split in halves for layers 0
    # to 3, and octaves 1 to 6 (256x256 down to 8x8) go to the helper
    filter1d = ndimage.gaussian_filter1d
    calls = []

    def recording(src, *args, **kwargs):
        calls.append((_on_helper(), src.shape))
        return filter1d(src, *args, **kwargs)

    monkeypatch.setattr(ndimage, "gaussian_filter1d", recording)
    build_scale_space(_random_image(256))
    upper = [helper for helper, (h, w) in calls if h == w < 512]
    assert len(upper) == 6 * 5 * 2 and all(upper)
    # layers 4 and 5 of octave 0, whole and here, two passes each
    assert [helper for helper, shape in calls if shape == (512, 512)] == [False] * 4


def test_scale_space_raises_the_helpers_octave_error(monkeypatch):
    filter1d = ndimage.gaussian_filter1d

    def failing_on_octave_1(src, *args, **kwargs):
        if _on_helper() and src.shape == (256, 256):
            raise MemoryError("octave 1")
        return filter1d(src, *args, **kwargs)

    monkeypatch.setattr(ndimage, "gaussian_filter1d", failing_on_octave_1)
    with pytest.raises(MemoryError, match="octave 1"):
        build_scale_space(_random_image(256))


def test_scale_space_waits_for_the_helpers_octaves_before_raising(monkeypatch):
    filter1d = ndimage.gaussian_filter1d
    upper_done = []

    def slow_octaves_failing_layer_4(src, *args, **kwargs):
        if src.shape == (512, 512):
            raise MemoryError("layer 4")
        if _on_helper() and src.shape[0] == src.shape[1]:
            if not upper_done:
                time.sleep(0.2)
            upper_done.append(filter1d(src, *args, **kwargs))
            return upper_done[-1]
        return filter1d(src, *args, **kwargs)

    monkeypatch.setattr(ndimage, "gaussian_filter1d", slow_octaves_failing_layer_4)
    with pytest.raises(MemoryError, match="layer 4"):
        build_scale_space(_random_image(256))
    # every pass of octaves 1 to 6 had run when the error was raised
    assert len(upper_done) == 6 * 5 * 2
