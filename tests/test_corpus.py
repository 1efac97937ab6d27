"""Synthetic corpus generation: reproducibility and exact view geometry."""

import math

import numpy as np
import pytest

from graphsift.corpus import (
    MANIFEST_HEADER,
    generate_corpus,
    read_manifest,
    render_texture,
    subject_texture,
)
from graphsift.imageio import load_image


class TestRenderTexture:
    def test_deterministic(self):
        tex = subject_texture(1, 0, 64)
        a = render_texture(tex, 64, rotation=0.2, scale=1.1, translation=(1.0, -2.0))
        b = render_texture(tex, 64, rotation=0.2, scale=1.1, translation=(1.0, -2.0))
        assert a == b

    def test_distinct_subjects_distinct_images(self):
        a = render_texture(subject_texture(1, 0, 64), 64)
        b = render_texture(subject_texture(1, 1, 64), 64)
        assert a != b

    def test_integer_translation_shifts_pixels(self):
        # The field is evaluated analytically, so translating by whole
        # pixels reproduces the same samples at shifted grid positions.
        tex = subject_texture(1, 2, 64)
        base = render_texture(tex, 64).pixels
        moved = render_texture(tex, 64, translation=(5.0, 3.0)).pixels
        np.testing.assert_array_equal(moved[3:, 5:], base[:-3, :-5])

    def test_brightness_shifts_background(self):
        tex = subject_texture(1, 3, 64)
        base = render_texture(tex, 64).pixels
        brighter = render_texture(tex, 64, brightness=10.0).pixels
        # corners are far from every blob center: pure background
        assert int(brighter[0, 0]) - int(base[0, 0]) == 10

    def test_half_turn_equals_grid_flip(self):
        # Rotating the field by pi then sampling is the same as sampling
        # the original and flipping both axes (the grid is symmetric).
        tex = subject_texture(1, 4, 65)
        base = render_texture(tex, 65).pixels
        rotated = render_texture(tex, 65, rotation=math.pi).pixels
        np.testing.assert_array_equal(rotated, base[::-1, ::-1])


class TestGenerateCorpus:
    def test_layout_and_manifest(self, tmp_path):
        manifest = generate_corpus(tmp_path, seed=3, n_subjects=4, images_per_subject=3)
        rows = read_manifest(manifest)
        assert len(rows) == 12
        assert sorted({r.subject_id for r in rows}) == [
            "s000", "s001", "s002", "s003",
        ]
        for r in rows:
            assert r.image_path.exists()
            assert r.group == ("G1" if r.subject_id in ("s000", "s001") else "G2")
            assert r.role == ("train" if r.image_id == "i00" else "test")
            img = load_image(r.image_path)
            assert (img.height, img.width) == (128, 128)

    def test_reproducible_byte_for_byte(self, tmp_path):
        m1 = generate_corpus(tmp_path / "a", seed=5, n_subjects=2, images_per_subject=2)
        m2 = generate_corpus(tmp_path / "b", seed=5, n_subjects=2, images_per_subject=2)
        assert m1.read_text() == m2.read_text()
        for row1, row2 in zip(read_manifest(m1), read_manifest(m2)):
            assert row1.image_path.read_bytes() == row2.image_path.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        m1 = generate_corpus(tmp_path / "a", seed=5, n_subjects=2, images_per_subject=1)
        m2 = generate_corpus(tmp_path / "b", seed=6, n_subjects=2, images_per_subject=1)
        r1, r2 = read_manifest(m1)[0], read_manifest(m2)[0]
        assert r1.image_path.read_bytes() != r2.image_path.read_bytes()

    def test_train_view_is_canonical(self, tmp_path):
        manifest = generate_corpus(tmp_path, seed=7, n_subjects=2, images_per_subject=2)
        train = next(r for r in read_manifest(manifest) if r.role == "train")
        subject_index = int(train.subject_id[1:])
        direct = render_texture(subject_texture(7, subject_index, 128), 128)
        assert load_image(train.image_path) == direct

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"n_subjects": 1}, id="1-4"),
            pytest.param({"n_subjects": 0}, id="0-4"),
            pytest.param({"images_per_subject": 0}, id="2-0"),
            pytest.param({"size": -3}, id="size=-3"),
            pytest.param({"seed": -1}, id="seed=-1"),
            pytest.param({"size": 2.5}, id="size=2.5"),
            pytest.param({"size": 15}, id="size=15"),
            pytest.param({"n_subjects": True}, id="n_subjects=True"),
        ],
    )
    def test_degenerate_sizes_rejected(self, tmp_path, kwargs):
        out = tmp_path / "corpus"
        args = {"n_subjects": 2, "images_per_subject": 4, "size": 128, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            generate_corpus(out, **args)
        assert not out.exists()


class TestReadManifest:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_manifest(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MANIFEST_HEADER + "\nonly,three,fields\n")
        with pytest.raises(ValueError):
            read_manifest(p)

    def test_unknown_role(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MANIFEST_HEADER + "\nx.pgm,s,i,G1,validation\n")
        with pytest.raises(ValueError):
            read_manifest(p)

    def test_absolute_paths_preserved(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(MANIFEST_HEADER + "\n/abs/x.pgm,s,i,G1,train\n")
        row = read_manifest(p)[0]
        assert str(row.image_path) == "/abs/x.pgm"

    def test_relative_paths_anchor_at_manifest(self, tmp_path):
        nested = tmp_path / "deep"
        nested.mkdir()
        p = nested / "m.csv"
        p.write_text(MANIFEST_HEADER + "\nx.pgm,s,i,G2,test\n")
        row = read_manifest(p)[0]
        assert row.image_path == nested / "x.pgm"
