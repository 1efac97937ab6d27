"""End-to-end feature extraction invariants."""

import math

import numpy as np
import pytest

from graphsift.config import DESCRIPTOR_LEN, DetectorConfig
from graphsift.corpus import render_texture, subject_texture
from graphsift.errors import ImageTooSmall
from graphsift.imageio import GrayImage, histogram_equalize
from graphsift.sift import extract_features


def texture_image(subject, image, size=64):
    return histogram_equalize(render_texture(subject_texture(21, subject, size), size))


class TestExtractFeatures:
    def test_deterministic_bit_for_bit(self):
        img = texture_image(0, 0)
        a, b = extract_features(img), extract_features(img)
        assert len(a) == len(b)
        for ka, kb in zip(a, b):
            assert ka.sort_key() == kb.sort_key()
            assert np.array_equal(ka.descriptor, kb.descriptor)

    def test_constant_image_yields_nothing(self):
        img = GrayImage(np.full((64, 64), 90, dtype=np.uint8))
        assert extract_features(img) == []

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
        keys = [kp.sort_key() for kp in kps]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for kp in kps:
            assert 0.0 <= kp.x < img.width
            assert 0.0 <= kp.y < img.height
            assert kp.scale > 0.0

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
        margin = 24.0  # ignore content near borders where windows differ
        interior = [
            kp for kp in kp_base
            if margin < kp.x < 128 - margin - 16 and margin < kp.y < 128 - margin - 8
        ]
        matched = 0
        for kp in interior:
            if any(
                np.hypot(m.x - (kp.x + 16.0), m.y - (kp.y + 8.0)) < 1.0
                for m in kp_moved
            ):
                matched += 1
        assert len(interior) >= 10
        assert matched >= 0.8 * len(interior)

    def test_float32_scalar_fields(self):
        for kp in extract_features(texture_image(2, 2)):
            for value in (kp.x, kp.y, kp.scale, kp.orientation):
                assert value == float(np.float32(value))


@pytest.mark.parametrize("grid,bins", [(2, 8), (4, 4), (3, 8), (5, 8)])
def test_descriptor_length_must_fit_the_store(grid, bins):
    # the descriptor shape is fixed: the gallery store reads back
    # exactly DESCRIPTOR_LEN floats per descriptor
    with pytest.raises(TypeError):
        DetectorConfig(descriptor_grid=grid, descriptor_bins=bins)
    cfg = DetectorConfig()
    assert cfg.descriptor_grid**2 * cfg.descriptor_bins == DESCRIPTOR_LEN


DEFAULT_TEXT = (
    "scales_per_octave=3\nbase_sigma=1.6\nassumed_blur=0.5\ndouble_input=true\n"
    "max_octaves=0\ncontrast_threshold=0.03\nedge_ratio=10.0\n"
    "orientation_bins=36\npeak_ratio=0.8\ndescriptor_grid=4\n"
    "descriptor_bins=8\ndescriptor_clamp=0.2\n"
)


class TestDetectorConfig:
    def test_digest_and_text_pinned(self):
        # galleries on disk carry these digests; a change here makes
        # every one of them fail the identify digest check
        assert DetectorConfig().to_text() == DEFAULT_TEXT
        assert DetectorConfig().digest() == 0xF8D243CE070BC5DA
        assert DetectorConfig(base_sigma=2.0).digest() == 0x27B346B216E72F32

    @pytest.mark.parametrize(
        "name",
        ["assumed_blur", "orientation_bins", "peak_ratio",
         "descriptor_grid", "descriptor_bins", "descriptor_clamp"],
    )
    def test_fixed_constants_not_settable(self, name):
        with pytest.raises(TypeError):
            DetectorConfig(**{name: getattr(DetectorConfig, name)})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scales_per_octave": 3.0},
            {"scales_per_octave": True},
            {"max_octaves": 2.0},
            {"max_octaves": True},
            {"max_octaves": -1},
            {"base_sigma": math.inf},
            {"base_sigma": math.nan},
            {"edge_ratio": math.inf},
            {"edge_ratio": math.nan},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DetectorConfig(**kwargs)

    def test_int_base_sigma_digests_as_float(self):
        cfg = DetectorConfig(base_sigma=2)
        assert type(cfg.base_sigma) is float
        assert cfg.to_text() == DetectorConfig(base_sigma=2.0).to_text()
        assert cfg.digest() == 0x27B346B216E72F32

    def test_int_edge_ratio_keeps_default_digest(self):
        cfg = DetectorConfig(edge_ratio=10)
        assert type(cfg.edge_ratio) is float
        assert cfg.to_text() == DEFAULT_TEXT
        assert cfg.digest() == 0xF8D243CE070BC5DA

    @pytest.mark.parametrize("name", ["base_sigma", "contrast_threshold", "edge_ratio"])
    def test_bool_real_field_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            DetectorConfig(**{name: True})

    @pytest.mark.parametrize("value", [0, 1, np.True_])
    def test_double_input_must_be_bool(self, value):
        # an int here rendered as double_input=0/1 and digested apart
        # from the equal bool
        with pytest.raises(ValueError, match="double_input"):
            DetectorConfig(double_input=value)
