"""Scale-space construction against closed-form Gaussian oracles."""

import math

import numpy as np
import pytest

from graphsift.config import DetectorConfig
from graphsift.errors import ImageTooSmall
from graphsift.imageio import GrayImage
from graphsift.sift import build_scale_space


def dog_impulse_oracle(cfg: DetectorConfig, layer: int) -> float:
    """Closed-form DoG response at an impulse's center, octave 0.

    Blurring a unit impulse by sigma gives a 2-D Gaussian whose center
    value is 1 / (2 pi sigma^2). The pipeline's blur relative to the raw
    array at layer k has variance sigma_k^2 - assumed_blur^2 (the input
    is credited with assumed_blur already), so the DoG center value is
    the difference of the two neighboring center values.
    """

    def center_value(k: int) -> float:
        sigma_abs = cfg.base_sigma * 2.0 ** (k / cfg.scales_per_octave)
        var = sigma_abs**2 - cfg.assumed_blur**2
        return 1.0 / (2.0 * math.pi * var)

    return center_value(layer + 1) - center_value(layer)


def test_too_small_raises():
    img = GrayImage(np.zeros((15, 15), dtype=np.uint8))
    with pytest.raises(ImageTooSmall):
        build_scale_space(img, DetectorConfig())


def test_minimum_size_builds():
    img = GrayImage(np.random.default_rng(0).integers(0, 256, (16, 16), dtype=np.uint8))
    ss = build_scale_space(img, DetectorConfig())
    assert len(ss.octaves) >= 1
    # floor(log2(16 / 8)) + 1: the smallest input still gets two octaves
    ss = build_scale_space(img, DetectorConfig(double_input=False))
    assert len(ss.octaves) == 2


def test_constant_image_zero_dog():
    img = GrayImage(np.full((32, 32), 137, dtype=np.uint8))
    ss = build_scale_space(img, DetectorConfig())
    for stack in ss.dog:
        for layer in stack:
            assert np.all(layer == 0.0)


def test_impulse_matches_closed_form():
    cfg = DetectorConfig(double_input=False)
    pixels = np.zeros((65, 65), dtype=np.uint8)
    pixels[32, 32] = 255  # becomes amplitude 1.0 after the /255 mapping
    ss = build_scale_space(GrayImage(pixels), cfg)
    for layer in range(cfg.scales_per_octave + 2):
        got = float(ss.dog[0][layer][32, 32])
        want = dog_impulse_oracle(cfg, layer)
        assert got == pytest.approx(want, abs=1e-4), f"layer {layer}"


def test_layer_counts_and_octave_halving():
    cfg = DetectorConfig()
    img = GrayImage(np.random.default_rng(1).integers(0, 256, (64, 48), dtype=np.uint8))
    ss = build_scale_space(img, cfg)
    s = cfg.scales_per_octave
    assert len(ss.octaves) == len(ss.dog)
    for o, (gauss, dog) in enumerate(zip(ss.octaves, ss.dog)):
        assert len(gauss) == s + 3
        assert len(dog) == s + 2
        if o > 0:
            prev = ss.octaves[o - 1][0].shape
            assert gauss[0].shape == ((prev[0] + 1) // 2, (prev[1] + 1) // 2)
        for k in range(s + 2):
            assert np.array_equal(dog[k], gauss[k + 1] - gauss[k])


def test_octave_count_formula():
    img = GrayImage(np.zeros((128, 128), dtype=np.uint8))
    ss = build_scale_space(img, DetectorConfig())
    # doubled input: 256 -> floor(log2(256 / 8)) + 1
    assert len(ss.octaves) == 6
    ss = build_scale_space(img, DetectorConfig(double_input=False))
    assert len(ss.octaves) == 5


def test_sigma_schedule():
    # Gaussian layer k carries absolute blur base_sigma * 2**(k/s), so
    # layer s has twice the base blur; an impulse's center value
    # 1 / (2 pi var) reads each layer's blur off the stack
    cfg = DetectorConfig(double_input=False)
    pixels = np.zeros((65, 65), dtype=np.uint8)
    pixels[32, 32] = 255
    ss = build_scale_space(GrayImage(pixels), cfg)
    s = cfg.scales_per_octave
    assert len(ss.octaves[0]) == s + 3
    for k, layer in enumerate(ss.octaves[0]):
        sigma = cfg.base_sigma * 2.0 ** (k / s)
        var = sigma**2 - cfg.assumed_blur**2
        want = 1.0 / (2.0 * math.pi * var)
        assert float(layer[32, 32]) == pytest.approx(want, rel=1e-3), f"layer {k}"


def test_pixel_scale_accounts_for_doubling():
    img = GrayImage(np.zeros((32, 32), dtype=np.uint8))
    ss = build_scale_space(img, DetectorConfig())
    assert ss.pixel_scale(0) == 0.5
    assert ss.pixel_scale(2) == 2.0
    ss = build_scale_space(img, DetectorConfig(double_input=False))
    assert ss.pixel_scale(0) == 1.0
