"""Binary gallery format: round-trips, determinism, corruption handling."""

import hashlib
import os
import re
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from graphsift.errors import (
    BadMagic,
    ChecksumMismatch,
    ForeignDetector,
    StoreError,
    TruncatedFile,
    UnsupportedVersion,
)
from graphsift.facegraph import build_graph
from graphsift.sift import DESCRIPTOR_LEN, Keypoints
from graphsift.store import (
    DETECTOR_DIGEST,
    FORMAT_VERSION,
    GalleryDb,
    export_text,
    load,
    merge,
    save,
)

from conftest import derived_oracle, diameter_edge_tables, random_graph, with_digest


def f32(lo, hi):
    return st.floats(lo, hi, width=32)


@st.composite
def keypoint_tables(draw):
    """Tables of 2..12 keypoints with valid geometry and any finite
    float32 descriptor values."""
    n = draw(st.integers(2, 12))
    columns = [
        draw(hnp.arrays(np.float32, n, elements=elements))
        for elements in (f32(0.0, 512.0), f32(0.0, 512.0), f32(0.25, 64.0),
                         f32(0.0, 6.25))
    ]
    any_finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    descriptors = draw(hnp.arrays(np.float32, (n, DESCRIPTOR_LEN), elements=any_finite))
    return Keypoints(np.column_stack(columns + [descriptors]))


def random_db(seed, n_entries=3):
    rng = np.random.default_rng(seed)
    entries = tuple(
        random_graph(
            rng, int(rng.integers(2, 7)),
            subject=f"s{k % 2}", image=f"img{k}",
        )
        for k in range(n_entries)
    )
    return GalleryDb(entries=entries)


def assert_dbs_equal(a, b):
    assert a.detector_cfg_hash == b.detector_cfg_hash
    assert len(a) == len(b)
    for ga, gb in zip(a.entries, b.entries):
        assert ga.subject_id == gb.subject_id
        assert ga.image_id == gb.image_id
        assert ga.vertices == gb.vertices
        assert np.array_equal(ga.descriptors, gb.descriptors)
        assert ga.diameter == gb.diameter


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n_entries=st.integers(1, 5))
    def test_structural_round_trip(self, tmp_path_factory, seed, n_entries):
        path = tmp_path_factory.mktemp("db") / "g.db"
        db = random_db(seed, n_entries)
        save(db, path)
        assert_dbs_equal(load(path), db)

    @settings(max_examples=40, deadline=None)
    @given(tables=st.lists(keypoint_tables(), min_size=1, max_size=3))
    @example(tables=diameter_edge_tables())
    def test_tables_and_derived_arrays_round_trip(self, tmp_path_factory, tables):
        path = tmp_path_factory.mktemp("db") / "g.db"
        db = GalleryDb(
            entries=tuple(build_graph(t, "s", f"i{k}") for k, t in enumerate(tables))
        )
        save(db, path)
        loaded = load(path)
        assert [g.vertices for g in loaded.entries] == tables
        for g, kps in zip(loaded.entries, tables):
            assert g.vertices.rows.tobytes() == kps.rows.tobytes()
            for name, want in derived_oracle(kps).items():
                got = np.asarray(getattr(g, name))
                assert got.tobytes() == np.asarray(want).tobytes(), name

    def test_empty_db_is_24_bytes(self, tmp_path):
        path = tmp_path / "empty.db"
        save(GalleryDb(), path)
        assert path.stat().st_size == 24
        loaded = load(path)
        assert len(loaded) == 0
        assert loaded.detector_cfg_hash == DETECTOR_DIGEST

    def test_save_is_deterministic(self, tmp_path):
        db = random_db(3)
        p1, p2 = tmp_path / "a.db", tmp_path / "b.db"
        save(db, p1)
        save(db, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_bytes_pinned(self, tmp_path):
        # sha256 of this gallery as the format was first written; a
        # change here strands every gallery already on disk
        path = tmp_path / "pin.db"
        save(random_db(2024, n_entries=4), path)
        data = path.read_bytes()
        assert len(data) == 10128
        assert hashlib.sha256(data).hexdigest() == (
            "b6f8d17a209967c9a255323c0ac131030fb8e7beac91652840699c8d1e010413"
        )

    def test_interrupted_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "g.db"
        save(random_db(5), path)
        before = path.read_bytes()
        with mock.patch.object(os, "replace", side_effect=OSError("interrupted")):
            with pytest.raises(OSError, match="interrupted"):
                save(random_db(6, n_entries=3), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.db"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        # a save that fails after its first entry has gone to <path>.tmp
        # removes the partial file and leaves the earlier gallery whole
        path = tmp_path / "g.db"
        save(random_db(5), path)
        before = path.read_bytes()
        crc32 = zlib.crc32
        calls = 0

        def failing_crc32(data, value=0):
            # chunks: the header, then each entry's head and rows; the
            # fourth is the second entry's head
            nonlocal calls
            calls += 1
            if calls == 4:
                raise OSError("disk full")
            return crc32(data, value)

        with mock.patch.object(zlib, "crc32", failing_crc32):
            with pytest.raises(OSError, match="disk full"):
                save(random_db(6, n_entries=3), path)
        assert calls == 4
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.db"]

    def test_save_memory_peak(self, tmp_path):
        # entries are written one at a time, straight from their keypoint
        # tables: the save's live peak stays below two entries' bytes
        # however many entries the gallery holds (a file buffer is 8 to
        # 128 KiB, a 256-keypoint entry 135 KB)
        rng = np.random.default_rng(9)
        entries = tuple(
            random_graph(rng, 256, subject=f"s{k}", image="i") for k in range(40)
        )
        entry_bytes = entries[0].vertices.rows.nbytes
        db = GalleryDb(entries=entries)
        tracemalloc.start()
        try:
            save(db, tmp_path / "g.db")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * entry_bytes, (peak, entry_bytes)
        assert_dbs_equal(load(tmp_path / "g.db"), db)

    def test_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.db", tmp_path / "b.db"
        save(random_db(4), p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unicode_ids(self, tmp_path):
        rng = np.random.default_rng(5)
        db = GalleryDb(
            entries=(random_graph(rng, 3, subject="sübject_π", image="imô"),)
        )
        path = tmp_path / "u.db"
        save(db, path)
        loaded = load(path)
        assert loaded.entries[0].subject_id == "sübject_π"
        assert loaded.entries[0].image_id == "imô"


class TestCorruption:
    def valid_bytes(self, tmp_path, seed=8):
        path = tmp_path / "v.db"
        save(random_db(seed), path)
        return path, path.read_bytes()

    def test_shorter_than_magic(self, tmp_path):
        path = tmp_path / "t.db"
        path.write_bytes(b"GS")
        with pytest.raises(TruncatedFile):
            load(path)

    def test_bad_magic(self, tmp_path):
        path, data = self.valid_bytes(tmp_path)
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(BadMagic):
            load(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "h.db"
        path.write_bytes(b"GSFT" + b"\x00" * 10)
        with pytest.raises(TruncatedFile):
            load(path)

    def test_unsupported_version(self, tmp_path):
        path, data = self.valid_bytes(tmp_path)
        payload = data[:4] + struct.pack("<I", FORMAT_VERSION + 1) + data[8:-4]
        payload += struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(payload)
        with pytest.raises(UnsupportedVersion):
            load(path)

    def test_truncated_mid_entry(self, tmp_path):
        path, data = self.valid_bytes(tmp_path)
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFile):
            load(path)

    def test_trailing_garbage(self, tmp_path):
        path, data = self.valid_bytes(tmp_path)
        payload = data[:-4] + b"\x01\x02\x03"
        payload += struct.pack("<I", zlib.crc32(payload))
        path.write_bytes(payload)
        with pytest.raises(TruncatedFile):
            load(path)

    def test_appended_bytes_fail_the_checksum(self, tmp_path):
        # bytes appended to a saved file are corruption, not a file that
        # ends early: the stored CRC no longer sits at the end
        path = tmp_path / "a.db"
        save(random_db(8, n_entries=1), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ChecksumMismatch) as raised:
            load(path)
        assert "8 unexpected bytes" in str(raised.value.__cause__)

    def test_checksum_mismatch(self, tmp_path):
        path, data = self.valid_bytes(tmp_path)
        # flip one bit inside the last descriptor float: parsing still
        # succeeds, the CRC does not
        corrupt = bytearray(data)
        corrupt[-8] ^= 0x01
        path.write_bytes(bytes(corrupt))
        with pytest.raises(ChecksumMismatch):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load(tmp_path / "nope.db")

    @pytest.mark.parametrize(
        "subject_id, n_kps, x, scale, message",
        [(b"\xff", 2, 1.0, 1.0, "malformed"), (b"s", 1, 1.0, 1.0, "malformed"),
         (b"s", 2, float("nan"), 1.0, "malformed"),
         (b"c\nd", 2, 1.0, 1.0, "whitespace"),
         (b"", 2, 1.0, 1.0, "subject id is empty"),
         (b"s", 2, 1.0, 0.0, "malformed gallery entry: keypoint row 0 has scale 0.0"),
         (b"a,b", 2, 1.0, 1.0, "comma")],
        ids=["invalid_utf8_id", "one_keypoint", "nan_keypoint", "whitespace_id",
             "empty_id", "zero_scale", "comma_id"],
    )
    def test_malformed_entry_under_valid_crc(
        self, tmp_path, subject_id, n_kps, x, scale, message
    ):
        payload = b"".join([
            b"GSFT",
            struct.pack("<IQI", FORMAT_VERSION, DETECTOR_DIGEST, 1),
            struct.pack("<I", len(subject_id)), subject_id,
            struct.pack("<I", 1), b"i",
            struct.pack("<I", n_kps),
            (struct.pack("<ffff", x, 2.0, scale, 0.0) + bytes(4 * 128)) * n_kps,
        ])
        path = tmp_path / "m.db"
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(StoreError, match=message) as err:
            load(path)
        assert type(err.value) is StoreError

    @settings(max_examples=300, deadline=None)
    @given(offset=st.integers(0, 1 << 16), xor=st.integers(1, 255), cut=st.booleans())
    @example(offset=16, xor=0x01, cut=False)  # entry count
    @example(offset=20, xor=0x01, cut=False)  # subject id length
    @example(offset=24, xor=0x80, cut=False)  # subject id byte, invalid UTF-8
    def test_every_flip_and_cut_is_a_store_error(
        self, tmp_path_factory, offset, xor, cut
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz.db"
        save(random_db(8), path)
        data = path.read_bytes()
        offset %= len(data)
        if cut:
            data = data[:offset]
        else:
            data = data[:offset] + bytes([data[offset] ^ xor]) + data[offset + 1 :]
        path.write_bytes(data)
        with pytest.raises(StoreError):
            load(path)


# the header digest of a gallery from a detector that did not double
# its input
UNDOUBLED_DIGEST = 0x286464ACFD51A5B0


class TestForeignDetector:
    def test_load_refuses_an_intact_foreign_gallery(self, tmp_path):
        path = tmp_path / "g.db"
        save(random_db(8), path)
        path.write_bytes(with_digest(path.read_bytes(), UNDOUBLED_DIGEST))
        want = f"digest {UNDOUBLED_DIGEST:016x}, not {DETECTOR_DIGEST:016x}"
        with pytest.raises(ForeignDetector, match=want):
            load(path)

    def test_foreign_digest_under_a_failing_crc_is_a_checksum_mismatch(
        self, tmp_path
    ):
        path = tmp_path / "g.db"
        save(random_db(8), path)
        forged = with_digest(path.read_bytes(), UNDOUBLED_DIGEST, intact=False)
        path.write_bytes(forged)
        with pytest.raises(ChecksumMismatch):
            load(path)

    @pytest.mark.parametrize("digest", [0, UNDOUBLED_DIGEST], ids=["zero", "undoubled"])
    def test_constructor_refuses_another_digest(self, digest):
        with pytest.raises(ForeignDetector):
            GalleryDb(detector_cfg_hash=digest)
        with pytest.raises(ForeignDetector):
            GalleryDb(digest, ())


class TestDbInvariants:
    def test_duplicate_keys_rejected(self):
        # both keys repeat; the one whose repeat comes first is named
        rng = np.random.default_rng(9)
        keys = [("s", "i"), ("t", "j"), ("t", "j"), ("s", "i")]
        entries = tuple(
            random_graph(rng, 3 + k, subject=s, image=i) for k, (s, i) in enumerate(keys)
        )
        want = "duplicate (subject_id, image_id) ('t', 'j') in gallery"
        with pytest.raises(StoreError, match=re.escape(want)):
            GalleryDb(entries=entries)

    def test_merge_appends(self):
        rng = np.random.default_rng(10)
        db = random_db(10, n_entries=2)
        extra = random_graph(rng, 3, subject="s9", image="new")
        merged = merge(db, [extra])
        assert len(merged) == 3
        assert merged.detector_cfg_hash == db.detector_cfg_hash
        assert merged.entries[-1] is extra

    def test_merge_duplicate_rejected(self):
        db = random_db(11, n_entries=1)
        dup = random_graph(
            np.random.default_rng(12), 3,
            subject=db.entries[0].subject_id, image=db.entries[0].image_id,
        )
        key = (db.entries[0].subject_id, db.entries[0].image_id)
        with pytest.raises(StoreError, match=re.escape(str(key))):
            merge(db, [dup])

    def test_format_version_not_settable(self, tmp_path):
        with pytest.raises(TypeError):
            GalleryDb(entries=(), format_version=2)
        path = tmp_path / "v.db"
        save(GalleryDb(), path)
        assert struct.unpack("<I", path.read_bytes()[4:8])[0] == FORMAT_VERSION


class TestExportText:
    def test_float32_fields_survive_9_digits(self, tmp_path):
        db = random_db(13)
        path = tmp_path / "dump.txt"
        export_text(db, path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(lines) == sum(g.n_vertices for g in db.entries)
        it = iter(lines)
        for g in db.entries:
            kps = g.vertices
            for i in range(len(kps)):
                fields = next(it).split(" ")
                assert fields[0] == g.subject_id
                assert fields[1] == g.image_id
                assert np.float32(fields[2]) == kps.rows[i, 0]
                assert np.float32(fields[3]) == kps.rows[i, 1]
                assert np.float32(fields[4]) == kps.scale[i]
                assert np.float32(fields[5]) == kps.rows[i, 3]
                parsed = np.array(fields[6:], dtype=np.float32)
                assert np.array_equal(parsed, kps.descriptors[i])

    def test_spaced_ids_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(StoreError, match="whitespace"):
            GalleryDb(entries=(random_graph(rng, 2, subject="bad id", image="i"),))

    @pytest.mark.parametrize(
        "bad", ["s\t1", "img\nx", "a\rb", "\x0b", "a\u00a0b", "a\u2003", "", "a,b"]
    )
    @pytest.mark.parametrize("field", ["subject", "image"])
    def test_whitespace_ids_rejected(self, field, bad):
        # any whitespace in an id would break the export's
        # one-keypoint-per-line, space-separated format, an empty id
        # would shift its fields by one, and a comma would split a CSV
        # row, so a gallery refuses such an id before it can be stored,
        # exported or reported
        rng = np.random.default_rng(15)
        ids = {"subject": "s", "image": "i", field: bad}
        message = {"": f"{field} id is empty", "a,b": f"{field} id 'a,b' holds a comma"}
        message = message.get(bad, "whitespace")
        with pytest.raises(StoreError, match=message):
            GalleryDb(entries=(random_graph(rng, 2, **ids),))
