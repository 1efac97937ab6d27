"""Image loading and histogram equalization.

The equalization oracle below is an independent scalar implementation
of the CDF remapping, written against the documented formula only.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsift.errors import CorruptHeader, UnsupportedFormat
from graphsift.imageio import GrayImage, histogram_equalize, load_image, save_pgm


def equalize_oracle(pixels: np.ndarray) -> np.ndarray:
    """Per-pixel CDF remapping via plain Python loops."""
    flat = [int(v) for v in pixels.reshape(-1)]
    n = len(flat)
    counts = [0] * 256
    for v in flat:
        counts[v] += 1
    cdf = []
    running = 0
    for c in counts:
        running += c
        cdf.append(running)
    cdf_min = min(cdf[v] for v in set(flat))
    if n == cdf_min:
        return pixels.copy()
    out = [
        min(255, max(0, int(np.floor(255.0 * (cdf[v] - cdf_min) / (n - cdf_min) + 0.5))))
        for v in flat
    ]
    return np.array(out, dtype=np.uint8).reshape(pixels.shape)


def pgm_bytes(width, height, payload, maxval=255, header_extra=""):
    return f"P5{header_extra}\n{width} {height}\n{maxval}\n".encode() + payload


class TestLoadPgm:
    def test_2x2_passthrough(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(pgm_bytes(2, 2, bytes([0, 85, 170, 255])))
        img = load_image(p)
        assert img.width == 2 and img.height == 2
        assert list(img.pixels.ravel()) == [0, 85, 170, 255]

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n# a comment\n2 # inline\n2\n255\n" + bytes(4))
        img = load_image(p)
        assert (img.width, img.height) == (2, 2)

    def test_payload_shorter_than_declared(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(pgm_bytes(4, 4, bytes(8)))
        with pytest.raises(CorruptHeader):
            load_image(p)

    def test_payload_longer_than_declared(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(pgm_bytes(2, 2, bytes(9)))
        with pytest.raises(CorruptHeader):
            load_image(p)

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n4", "ended before"),
        (b"P5\nx 2\n255\n", "non-numeric"),
        # int() takes these as 10, 2 and 255
        (b"P5\n1_0 1\n255\n" + bytes(10), "non-numeric"),
        (b"P5\n+2 1\n255\n" + bytes(2), "non-numeric"),
        (b"P5\n2 1\n+255\n" + bytes(2), "non-numeric"),
        (b"P5\n2 1\n2_55\n" + bytes(2), "non-numeric"),
        (b"P5\n0 2\n255\n", "non-positive"),
    ], ids=["cut_short", "letter", "underscore", "plus", "plus_maxval",
            "underscore_maxval", "zero_width"])
    def test_corrupt_header_rejected(self, tmp_path, raw, message):
        p = tmp_path / "t.pgm"
        p.write_bytes(raw)
        with pytest.raises(CorruptHeader, match=message):
            load_image(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(pgm_bytes(2, 2, bytes(8), maxval=65535))
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    @pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3", b"P4", b"P6"])
    def test_other_pnm_rejected(self, tmp_path, magic):
        p = tmp_path / "t.pnm"
        p.write_bytes(magic + b"\n2 2\n255\n" + bytes(4))
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    def test_magic_without_whitespace_rejected(self, tmp_path):
        # "P512 2" once read as a 12 x 2 image
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P512 2\n255\n" + bytes(24))
        with pytest.raises(CorruptHeader, match="whitespace"):
            load_image(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        p.write_bytes(b"\x00\x01garbage")
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "nope.pgm")

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (17, 23), dtype=np.uint8))
        p = tmp_path / "rt.pgm"
        save_pgm(img, p)
        assert load_image(p) == img

    def test_png_roundtrip_if_pillow_available(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 256, (9, 12), dtype=np.uint8)
        p = tmp_path / "t.png"
        PIL.fromarray(arr, mode="L").save(p)
        assert np.array_equal(load_image(p).pixels, arr)

    def test_rgb_png_rejected(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        arr = np.zeros((5, 5, 3), dtype=np.uint8)
        p = tmp_path / "t.png"
        PIL.fromarray(arr, mode="RGB").save(p)
        with pytest.raises(UnsupportedFormat):
            load_image(p)

    def test_png_without_pillow_rejected(self, tmp_path, monkeypatch):
        # None in sys.modules fails every import of PIL, installed or not
        monkeypatch.setitem(sys.modules, "PIL", None)
        p = tmp_path / "t.png"
        p.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(16))
        with pytest.raises(UnsupportedFormat, match="Pillow"):
            load_image(p)


class TestGrayImage:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((4, 4), dtype=np.float32))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 4), dtype=np.uint8))


class TestEqualize:
    def test_constant_unchanged(self):
        img = GrayImage(np.full((8, 8), 100, dtype=np.uint8))
        out = histogram_equalize(img)
        assert out == img

    def test_two_bin_spread_unchanged(self):
        img = GrayImage(np.array([[0, 0], [255, 255]], dtype=np.uint8))
        assert histogram_equalize(img) == img

    def test_hand_table_1x4(self):
        img = GrayImage(np.array([[10, 20, 20, 30]], dtype=np.uint8))
        out = histogram_equalize(img)
        # cdf: 10 -> 1, 20 -> 3, 30 -> 4; cdf_min = 1, N = 4
        # L(10) = round(255*0/3) = 0, L(20) = round(255*2/3) = 170, L(30) = 255
        assert list(out.pixels.ravel()) == [0, 170, 170, 255]
        assert np.array_equal(out.pixels, equalize_oracle(img.pixels))

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            h, w = rng.integers(1, 24, 2)
            pixels = rng.integers(0, 256, (h, w), dtype=np.uint8)
            out = histogram_equalize(GrayImage(pixels))
            assert np.array_equal(out.pixels, equalize_oracle(pixels))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_within_one_level(self, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        once = histogram_equalize(GrayImage(pixels))
        twice = histogram_equalize(once)
        diff = np.abs(twice.pixels.astype(int) - once.pixels.astype(int))
        assert diff.max() <= 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, seed):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, (10, 10), dtype=np.uint8)
        out = histogram_equalize(GrayImage(pixels)).pixels
        order = np.argsort(pixels, axis=None, kind="stable")
        mapped = out.reshape(-1)[order]
        assert np.all(np.diff(mapped.astype(int)) >= 0)

    def test_dimensions_preserved(self):
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (7, 13), dtype=np.uint8))
        out = histogram_equalize(img)
        assert (out.width, out.height) == (img.width, img.height)
