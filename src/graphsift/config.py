"""Detector configuration, with a canonical text form.

The text form (one ``key=value`` per line, keys in declaration order,
fixed constants included) is what a config's 64-bit digest hashes; the
digest identifies which detector settings produced a gallery.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from typing import ClassVar

DESCRIPTOR_LEN = 128  # floats per descriptor in the gallery store


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

    ``double_input`` (default True: upsample the input 2x before the
    pyramid) is the one settable value. The rest are the fixed values
    of standard SIFT, as class constants: 3 ``scales_per_octave``,
    ``base_sigma`` 1.6 for the pyramid base on an input of
    ``assumed_blur`` 0.5 px, ``max_octaves`` 0 (the octave count
    follows from the image size), ``contrast_threshold`` 0.03 on [0,1]
    intensities, ``edge_ratio`` 10, 36 ``orientation_bins`` with the
    80% secondary-peak ``peak_ratio``, and a 4x4 ``descriptor_grid`` of
    8 ``descriptor_bins`` (the store's 128 floats, 16x16 sample window)
    clamped at ``descriptor_clamp`` 0.2.
    """

    scales_per_octave: ClassVar[int] = 3
    base_sigma: ClassVar[float] = 1.6
    assumed_blur: ClassVar[float] = 0.5
    double_input: bool = True
    max_octaves: ClassVar[int] = 0
    contrast_threshold: ClassVar[float] = 0.03
    edge_ratio: ClassVar[float] = 10.0
    orientation_bins: ClassVar[int] = 36
    peak_ratio: ClassVar[float] = 0.8
    descriptor_grid: ClassVar[int] = 4
    descriptor_bins: ClassVar[int] = 8
    descriptor_clamp: ClassVar[float] = 0.2

    def __post_init__(self):
        if type(self.double_input) is not bool:
            raise ValueError(f"double_input must be a bool, not {self.double_input!r}")

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
