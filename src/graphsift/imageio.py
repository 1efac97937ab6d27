"""Grayscale image loading, writing and photometric normalization.

Binary PGM (P5, maxval 255) is the mandatory interchange format; 8-bit
grayscale PNG is accepted when Pillow is installed. Images are held as
(height, width) uint8 arrays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptHeader, UnsupportedFormat

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


@dataclass(frozen=True)
class GrayImage:
    """8-bit single-channel raster; ``pixels`` is row-major (h, w) uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 2 or p.dtype != np.uint8:
            raise ValueError("pixels must be a 2-D uint8 array")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must have at least one pixel")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def load_image(path) -> GrayImage:
    """Load a grayscale image from a P5 PGM or an 8-bit grayscale PNG.

    Multi-channel or deeper-than-8-bit inputs are rejected rather than
    converted.
    """
    raw = Path(path).read_bytes()
    if raw.startswith(b"P5"):
        return _parse_pgm(raw)
    if raw.startswith(_PNG_MAGIC):
        return _parse_png(raw)
    if raw[:2] in (b"P1", b"P2", b"P3", b"P4", b"P6"):
        raise UnsupportedFormat(f"{path}: only binary PGM (P5) is supported")
    raise UnsupportedFormat(f"{path}: unrecognized image format")


def _parse_pgm(raw: bytes) -> GrayImage:
    # Header: "P5", whitespace-separated width/height/maxval with
    # optional '#' comments, one whitespace byte, then the payload.
    # Whitespace must follow the magic, or "P512" would read as width 12.
    if not raw[2:3].isspace():
        raise CorruptHeader("PGM magic P5 is not followed by whitespace")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CorruptHeader("PGM header ended before width/height/maxval")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    # int() would also take "1_0" and "+2"
    if not all(t.isdigit() for t in tokens):
        raise CorruptHeader(f"non-numeric PGM header fields {tokens!r}")
    width, height, maxval = (int(t) for t in tokens)
    if width <= 0 or height <= 0:
        raise CorruptHeader(f"non-positive PGM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormat(f"PGM maxval {maxval} unsupported (need 255)")
    payload = raw[pos:]
    if len(payload) != width * height:
        raise CorruptHeader(
            f"PGM declares {width}x{height} = {width * height} bytes, "
            f"payload has {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy())


def _parse_png(raw: bytes) -> GrayImage:
    try:
        from PIL import Image
    except ImportError:
        raise UnsupportedFormat(
            "PNG input needs Pillow (pip install Pillow)"
        ) from None
    with Image.open(io.BytesIO(raw)) as im:
        if im.mode != "L":
            raise UnsupportedFormat(
                f"PNG mode {im.mode!r} rejected; need 8-bit grayscale (L)"
            )
        pixels = np.asarray(im, dtype=np.uint8)
    return GrayImage(pixels.copy())


def save_pgm(img: GrayImage, path) -> None:
    """Write a binary P5 PGM. Byte-exact inverse of the P5 loader."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def histogram_equalize(img: GrayImage) -> GrayImage:
    """Photometric normalization by CDF remapping.

    Each intensity v maps to round(255 * (cdf(v) - cdf_min) / (N - cdf_min)),
    with cdf in pixel counts, N the pixel count and cdf_min the smallest
    nonzero CDF value; ties round up. A constant image (the only case
    where the denominator vanishes) is returned unchanged.
    """
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    n = int(cdf[-1])
    cdf_min = int(cdf[np.flatnonzero(hist)[0]])
    denom = n - cdf_min
    if denom == 0:
        return GrayImage(img.pixels.copy())
    lut = np.floor(255.0 * (cdf - cdf_min) / denom + 0.5)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return GrayImage(lut[img.pixels])
