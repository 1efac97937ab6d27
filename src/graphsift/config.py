"""Detector and matcher configuration, with a canonical text form.

The text form (one ``key=value`` per line, keys in declaration order,
fixed constants included) is what a config's 64-bit digest hashes; the
digest identifies which detector settings produced a gallery.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

DESCRIPTOR_LEN = 128  # floats per descriptor in the gallery store


def _real(name: str, value) -> float:
    """value as a float; a bool or a non-real raises ValueError naming the
    field. Storing floats makes an int render and digest like the float
    it equals, and keeps a config hashable."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    return float(value)


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least least; a bool or a non-integer raises
    ValueError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class DetectorConfig:
    """Keypoint detector parameters.

    Defaults follow the common SIFT baseline: 3 scales per octave,
    base sigma 1.6, one initial doubling of the input, contrast
    threshold 0.03 on [0,1] intensities and edge ratio 10.

    Those five are settable. Seven values of standard SIFT are fixed
    class constants: ``assumed_blur`` (0.5 px), ``max_octaves`` (0: the
    octave count follows from the image size), 36 ``orientation_bins``
    with the 80% secondary-peak ``peak_ratio``, and a 4x4
    ``descriptor_grid`` of 8 ``descriptor_bins`` (the store's 128
    floats, 16x16 sample window) clamped at ``descriptor_clamp`` 0.2.
    """

    scales_per_octave: int = 3
    base_sigma: float = 1.6
    assumed_blur: ClassVar[float] = 0.5
    double_input: bool = True
    max_octaves: ClassVar[int] = 0
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    orientation_bins: ClassVar[int] = 36
    peak_ratio: ClassVar[float] = 0.8
    descriptor_grid: ClassVar[int] = 4
    descriptor_bins: ClassVar[int] = 8
    descriptor_clamp: ClassVar[float] = 0.2

    def __post_init__(self):
        for name in ("base_sigma", "contrast_threshold", "edge_ratio"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        n = _integer("scales_per_octave", self.scales_per_octave, 1)
        object.__setattr__(self, "scales_per_octave", n)
        if type(self.double_input) is not bool:
            raise ValueError(f"double_input must be a bool, not {self.double_input!r}")
        if not 0 < self.base_sigma < math.inf:
            raise ValueError("base_sigma must be positive and finite")
        if not 0 < self.contrast_threshold < 1:
            raise ValueError("contrast_threshold must be in (0, 1)")
        if not 1 <= self.edge_ratio < math.inf:
            raise ValueError("edge_ratio must be finite and >= 1")

    def to_text(self) -> str:
        # the fixed constants stay in the text, so galleries saved when
        # they were settable keep their digest
        lines = []
        for name in type(self).__annotations__:
            value = getattr(self, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> int:
        """64-bit digest of the canonical text form."""
        h = hashlib.blake2b(self.to_text().encode("utf-8"), digest_size=8)
        return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class MatchConfig:
    """Graph matching parameters.

    ``ratio`` is the nearest/second-nearest acceptance ratio for
    correspondences. The score's band weights, and its even split
    between the vertex and edge terms, are the paper's fixed values
    (see matcher).
    """

    ratio: float = 0.8

    def __post_init__(self):
        object.__setattr__(self, "ratio", _real("ratio", self.ratio))
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
