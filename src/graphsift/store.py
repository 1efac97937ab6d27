"""Gallery persistence: a little-endian, checksummed binary format.

Layout (all integers little-endian):

    magic   4 bytes  b"GSFT"
    u32     format version (currently 1)
    u64     detector digest, DETECTOR_DIGEST
    u32     entry count
    entries, each:
        u32 + UTF-8 bytes   subject_id
        u32 + UTF-8 bytes   image_id
        u32                 keypoint count
        count x 132 f32     keypoint rows: x, y, scale, orientation,
                            then the 128-value descriptor
    u32     CRC-32 of every preceding byte

An empty gallery is exactly 24 bytes. Saving is deterministic:
rewriting an unchanged db yields byte-identical files. A save writes
``<path>.tmp`` beside the file and renames it over ``path``, so an
interrupted save leaves the earlier gallery whole. Edges are not
stored; the complete graph is implied, and a loaded graph computes its
diameter on first edge use, like any other.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    ChecksumMismatch,
    ForeignDetector,
    GraphSiftError,
    StoreError,
    TruncatedFile,
    UnsupportedVersion,
)
from .facegraph import FaceGraph, build_graph
from .sift import ROW_LEN, Keypoints

MAGIC = b"GSFT"
FORMAT_VERSION = 1
_CRC_MISMATCH = "payload CRC does not match the stored value"
# blake2b-64 of the text that listed standard SIFT's values when they
# were settable; kept, so that galleries saved since then stay readable
DETECTOR_DIGEST = 0xF8D243CE070BC5DA


@dataclass(frozen=True)
class GalleryDb:
    """Loaded gallery: graphs plus the digest of the detector that
    produced them, which must be this one's ``DETECTOR_DIGEST`` (any
    other raises ForeignDetector); ``GalleryDb()`` is an empty gallery.
    (subject_id, image_id) pairs must be unique, and no id may be empty
    or hold whitespace, either of which would break the text export's
    space-separated lines, or a comma, which would split a CSV row."""

    detector_cfg_hash: int = DETECTOR_DIGEST
    entries: tuple[FaceGraph, ...] = ()

    def __post_init__(self):
        if self.detector_cfg_hash != DETECTOR_DIGEST:
            raise ForeignDetector(
                f"gallery was built by another detector: digest "
                f"{self.detector_cfg_hash:016x}, not {DETECTOR_DIGEST:016x}"
            )
        _check_keys(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _check_keys(
    entries: tuple[FaceGraph, ...], new_keys: tuple[tuple[str, str], ...] = ()
) -> None:
    """GalleryDb's id rule over its entries' keys and any planned
    (subject_id, image_id) keys, so that a caller can check ids before
    it builds their graphs: raises StoreError for an empty id, one
    holding whitespace or a comma, or a repeated key (the first to repeat
    is named)."""
    keys = [(g.subject_id, g.image_id) for g in entries] + list(new_keys)
    seen = set()
    for key in keys:
        for name, text in zip(("subject id", "image id"), key):
            if not text:
                raise StoreError(f"{name} is empty")
            if any(c.isspace() for c in text):
                raise StoreError(f"{name} {text!r} holds whitespace")
            if "," in text:
                raise StoreError(f"{name} {text!r} holds a comma")
        if key in seen:
            raise StoreError(f"duplicate (subject_id, image_id) {key} in gallery")
        seen.add(key)


def merge(db: GalleryDb, graphs: list[FaceGraph]) -> GalleryDb:
    """New db with graphs appended; duplicate keys are rejected by the
    GalleryDb constructor."""
    return GalleryDb(entries=db.entries + tuple(graphs))


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _chunks(db: GalleryDb):
    """The file's bytes up to the CRC, in order: the header, then each
    entry's ids and count, and its keypoint rows as the table itself."""
    yield MAGIC + struct.pack(
        "<IQI", FORMAT_VERSION, db.detector_cfg_hash, len(db.entries)
    )
    for g in db.entries:
        yield (
            _encode_str(g.subject_id)
            + _encode_str(g.image_id)
            + struct.pack("<I", g.n_vertices)
        )
        yield g.vertices.rows.astype("<f4", copy=False)


def save(db: GalleryDb, path: str | Path) -> None:
    """Write ``db`` to ``<path>.tmp`` one chunk at a time, with a running
    CRC, so the file's bytes are never held whole; then rename it over
    ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in _chunks(db):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, data: bytes, limit: int):
        self.data = data
        self.limit = limit
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > self.limit:
            raise TruncatedFile(f"needed {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def load(path: str | Path) -> GalleryDb:
    """Read a gallery file; any fault in it raises a StoreError.

    The CRC is checked before the detector digest and the entries are
    trusted. Under a failing CRC, any parse failure, a foreign digest
    and bytes after the last entry included, is a checksum mismatch,
    unless the file ends before its declared contents do (TruncatedFile).
    Under a matching CRC, an entry that fails to parse is reported as a
    StoreError, bytes after the last entry as TruncatedFile, and a
    header digest other than ``DETECTOR_DIGEST``, that of a gallery from
    another detector, as ForeignDetector.
    """
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedFile(f"{len(data)} bytes is shorter than the magic")
    if data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {data[:4]!r}")
    if len(data) < 24:
        raise TruncatedFile(f"{len(data)} bytes is shorter than a header")
    # a memoryview slice, so the checksum reads the bytes without a copy
    intact = zlib.crc32(memoryview(data)[:-4]) == struct.unpack("<I", data[-4:])[0]
    try:
        db = _parse(data, intact)
    except TruncatedFile:
        # a file cut short fails the CRC too; the shortfall says more
        raise
    except (GraphSiftError, ValueError) as exc:
        if not intact:
            raise ChecksumMismatch(_CRC_MISMATCH) from exc
        if isinstance(exc, StoreError):
            raise
        raise StoreError(f"malformed gallery entry: {exc}") from exc
    if not intact:
        raise ChecksumMismatch(_CRC_MISMATCH)
    return db


def _parse(data: bytes, intact: bool) -> GalleryDb:
    r = _Reader(data, len(data) - 4)
    r.take(4)  # magic
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version {version}, reader supports {FORMAT_VERSION}")
    digest = struct.unpack("<Q", r.take(8))[0]
    n_entries = r.u32()

    graphs = []
    for _ in range(n_entries):
        subject_id = r.text()
        image_id = r.text()
        n_kps = r.u32()
        rows = np.frombuffer(r.take(4 * ROW_LEN * n_kps), dtype="<f4")
        graphs.append(
            build_graph(Keypoints(rows.reshape(n_kps, ROW_LEN)), subject_id, image_id)
        )
    if r.pos != r.limit:
        detail = f"{r.limit - r.pos} unexpected bytes between entries and checksum"
        # the file did not end early, so under a failing CRC these bytes
        # are corruption like any other parse failure
        raise TruncatedFile(detail) if intact else StoreError(detail)
    return GalleryDb(detector_cfg_hash=digest, entries=tuple(graphs))


def export_text(db: GalleryDb, path: str | Path) -> None:
    """Debug export, one keypoint per line:
    subject_id image_id x y scale orientation d0 ... d127
    (9 significant digits, enough to reproduce every float32 exactly).
    """
    lines = [
        "# subject_id image_id x y scale orientation d0..d127",
        f"# version {FORMAT_VERSION} cfg {db.detector_cfg_hash:016x} "
        f"entries {len(db.entries)}",
    ]
    for g in db.entries:
        for row in g.vertices.rows.tolist():
            fields = [g.subject_id, g.image_id] + [format(v, ".9g") for v in row]
            lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")
