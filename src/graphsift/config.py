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


@dataclass(frozen=True)
class DetectorConfig:
    """Keypoint detector parameters.

    Defaults follow the common SIFT baseline: 3 scales per octave,
    base sigma 1.6, one initial doubling of the input, contrast
    threshold 0.03 on [0,1] intensities and edge ratio 10.

    Six values of standard SIFT are fixed class constants that the
    constructor does not take: ``assumed_blur`` (0.5 px), 36
    ``orientation_bins`` with the 80% secondary-peak ``peak_ratio``,
    and a 4x4 ``descriptor_grid`` of 8 ``descriptor_bins`` (the store's
    128 floats, 16x16 sample window) clamped at ``descriptor_clamp`` 0.2.
    """

    scales_per_octave: int = 3
    base_sigma: float = 1.6
    assumed_blur: ClassVar[float] = 0.5
    double_input: bool = True
    max_octaves: int = 0  # 0 = derive from image size
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    orientation_bins: ClassVar[int] = 36
    peak_ratio: ClassVar[float] = 0.8
    descriptor_grid: ClassVar[int] = 4
    descriptor_bins: ClassVar[int] = 8
    descriptor_clamp: ClassVar[float] = 0.2

    def __post_init__(self):
        # the real-valued fields are stored as float, so an int value
        # renders and digests like the float it equals
        for name in ("base_sigma", "contrast_threshold", "edge_ratio"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
            object.__setattr__(self, name, float(value))
        if type(self.double_input) is not bool:
            raise ValueError(f"double_input must be a bool, not {self.double_input!r}")
        # type(...) is int, not isinstance: bool is an int subclass
        if type(self.scales_per_octave) is not int or self.scales_per_octave < 1:
            raise ValueError("scales_per_octave must be an int >= 1")
        if type(self.max_octaves) is not int or self.max_octaves < 0:
            raise ValueError("max_octaves must be an int >= 0")
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
    """Graph matching and score weighting parameters.

    ``ratio`` is the nearest/second-nearest acceptance ratio for
    correspondences; ``multipliers`` are the weights for distances
    falling within 1, 2 and 3 standard deviations of the pair-distance
    mean; ``blend`` mixes the weighted vertex and edge scores
    (0.5 = plain average).

    The first multiplier must be positive: the distances closest to the
    mean always take it, so the weighted means never divide by zero.
    """

    ratio: float = 0.8
    multipliers: tuple[float, float, float] = (0.075, 0.05, 0.025)
    blend: float = 0.5

    def __post_init__(self):
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        m = self.multipliers
        if len(m) != 3 or not all(0 <= v < math.inf for v in m) or not m[0] > 0:
            raise ValueError(
                "multipliers must be three finite non-negative reals, the first positive"
            )
        if not 0 <= self.blend <= 1:
            raise ValueError("blend must be in [0, 1]")
