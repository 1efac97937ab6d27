"""Exception types raised across the pipeline."""


class GraphSiftError(Exception):
    """Base class for all library-specific errors."""


# --- image loading / preprocessing ---

class UnsupportedFormat(GraphSiftError):
    """File magic or sample layout is not one we read (P5 PGM, 8-bit gray PNG)."""


class CorruptHeader(GraphSiftError):
    """Header-declared geometry disagrees with the payload."""


class ImageTooSmall(GraphSiftError):
    """Image is below the minimum size the detector supports."""


# --- graph construction / matching ---

class TooFewKeypoints(GraphSiftError):
    """Fewer keypoints than a face graph needs (minimum 2)."""


class NonFiniteKeypoint(GraphSiftError):
    """A keypoint table holds a NaN or infinite value."""


class NonPositiveScale(GraphSiftError):
    """A keypoint table holds a scale of zero or less."""


class EmptyGallery(GraphSiftError):
    """Identification against a gallery with no enrolled graphs."""


# --- evaluation ---

class DegenerateScores(GraphSiftError):
    """Score set lacks genuine or impostor claims, so no ROC exists."""


class InsufficientClaims(GraphSiftError):
    """A subject lacks the genuine+impostor claims needed for a threshold."""

    def __init__(self, subject_id: str, detail: str = ""):
        self.subject_id = subject_id
        msg = f"subject {subject_id!r}: {detail}" if detail else f"subject {subject_id!r}"
        super().__init__(msg)


class GroupOverlap(GraphSiftError):
    """A subject appears in both evaluation groups."""


# --- gallery store ---

class StoreError(GraphSiftError):
    """Base class for gallery file errors."""


class BadMagic(StoreError):
    """File does not start with the gallery magic bytes."""


class UnsupportedVersion(StoreError):
    """Gallery file version is newer than this reader understands."""


class TruncatedFile(StoreError):
    """Gallery file ends mid-record."""


class ChecksumMismatch(StoreError):
    """Gallery payload CRC does not match the stored value."""


class ForeignDetector(StoreError):
    """Gallery header names a detector other than this one."""
