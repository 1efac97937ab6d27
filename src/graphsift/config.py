"""The detector's digest under the name the benchmark imports.

Standard SIFT's values live in ``graphsift.sift`` and the digest a
gallery's header carries in ``graphsift.store``. This module goes once
the benchmark takes the digest from the store (ROADMAP item 1b).
"""

from .store import DETECTOR_DIGEST


class DetectorConfig:
    def digest(self) -> int:
        return DETECTOR_DIGEST
