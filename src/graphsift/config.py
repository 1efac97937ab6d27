"""Standard SIFT's detector values, with a canonical text form.

The text form (one ``key=value`` per line, keys in declaration order)
is what the detector's 64-bit digest hashes; a gallery stores the
digest of the detector that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

DESCRIPTOR_LEN = 128  # floats per descriptor in the gallery store


@dataclass(frozen=True)
class DetectorConfig:
    """The keypoint detector's values: standard SIFT's, all fixed.

    The input is upsampled 2x (``double_input``) before the pyramid,
    which has 3 ``scales_per_octave`` and ``base_sigma`` 1.6 for its
    base on an input of ``assumed_blur`` 0.5 px; ``max_octaves`` 0
    means the octave count follows from the image size. Then come
    ``contrast_threshold`` 0.03 on [0,1] intensities, ``edge_ratio``
    10, 36 ``orientation_bins`` with the 80% secondary-peak
    ``peak_ratio``, and a 4x4 ``descriptor_grid`` of 8
    ``descriptor_bins`` (the store's 128 floats, 16x16 sample window)
    clamped at ``descriptor_clamp`` 0.2. The detector takes no
    settings: ``DetectorConfig()`` only gives the text and digest of
    these values, and a gallery whose digest differs, such as one from
    a detector that did not double its input, is refused.
    """

    scales_per_octave: ClassVar[int] = 3
    base_sigma: ClassVar[float] = 1.6
    assumed_blur: ClassVar[float] = 0.5
    double_input: ClassVar[bool] = True
    max_octaves: ClassVar[int] = 0
    contrast_threshold: ClassVar[float] = 0.03
    edge_ratio: ClassVar[float] = 10.0
    orientation_bins: ClassVar[int] = 36
    peak_ratio: ClassVar[float] = 0.8
    descriptor_grid: ClassVar[int] = 4
    descriptor_bins: ClassVar[int] = 8
    descriptor_clamp: ClassVar[float] = 0.2

    def to_text(self) -> str:
        # every value stays in the text, so galleries saved when they
        # were settable keep their digest
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
