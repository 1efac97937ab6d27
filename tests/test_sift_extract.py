"""End-to-end feature extraction invariants."""

import numpy as np
import pytest

from graphsift.config import DetectorConfig
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
    # the gallery store reads back exactly 128 floats per descriptor
    with pytest.raises(ValueError, match="128-float descriptors"):
        DetectorConfig(descriptor_grid=grid, descriptor_bins=bins)
