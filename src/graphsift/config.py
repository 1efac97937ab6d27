"""Detector and matcher configuration, with a canonical text form.

The text form (one ``key=value`` per line, keys in field order) is what
a config's 64-bit digest hashes; the digest identifies which detector
settings produced a gallery.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

DESCRIPTOR_LEN = 128  # floats per descriptor in the gallery store


@dataclass(frozen=True)
class DetectorConfig:
    """Keypoint detector parameters.

    Defaults follow the common SIFT baseline: 3 scales per octave,
    base sigma 1.6, one initial doubling of the input, contrast
    threshold 0.03 on [0,1] intensities, edge ratio 10, 36 orientation
    bins with the 80% secondary-peak rule, and a 4x4 descriptor grid of
    8 orientation planes (16x16 sample window).
    """

    scales_per_octave: int = 3
    base_sigma: float = 1.6
    assumed_blur: float = 0.5
    double_input: bool = True
    max_octaves: int = 0  # 0 = derive from image size
    contrast_threshold: float = 0.03
    edge_ratio: float = 10.0
    orientation_bins: int = 36
    peak_ratio: float = 0.8
    descriptor_grid: int = 4
    descriptor_bins: int = 8
    descriptor_clamp: float = 0.2

    def __post_init__(self):
        if self.scales_per_octave < 1:
            raise ValueError("scales_per_octave must be >= 1")
        if self.base_sigma <= 0:
            raise ValueError("base_sigma must be positive")
        if not 0 < self.contrast_threshold < 1:
            raise ValueError("contrast_threshold must be in (0, 1)")
        if self.edge_ratio < 1:
            raise ValueError("edge_ratio must be >= 1")
        if self.orientation_bins < 4:
            raise ValueError("orientation_bins must be >= 4")
        if not 0 < self.peak_ratio <= 1:
            raise ValueError("peak_ratio must be in (0, 1]")
        grid, bins = self.descriptor_grid, self.descriptor_bins
        if grid < 1 or grid * grid * bins != DESCRIPTOR_LEN:
            raise ValueError(
                f"need descriptor_grid >= 1 and descriptor_grid**2 * descriptor_bins"
                f" == {DESCRIPTOR_LEN}: the store holds {DESCRIPTOR_LEN}-float descriptors"
            )
        if not 0 < self.descriptor_clamp <= 1:
            raise ValueError("descriptor_clamp must be in (0, 1]")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
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

    The first multiplier must be positive: some distance always lies
    within one sigma of the mean, so the weighted means never divide
    by zero.
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
