"""CLI behaviour through main(argv): exit codes, output, error paths."""

import re
from pathlib import Path

import numpy as np
import pytest

import graphsift
from graphsift import cli
from graphsift.cli import main
from graphsift.imageio import GrayImage, save_pgm
from graphsift.matcher import REPORT_HEADER
from graphsift.store import DETECTOR_DIGEST, GalleryDb, save

from conftest import with_digest


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """4 subjects x 2 images at 64 px; enough for both protocol groups."""
    out = tmp_path_factory.mktemp("clicorpus")
    code = main([
        "gen-corpus", "--out", str(out), "--seed", "9",
        "--subjects", "4", "--images", "2", "--size", "64",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def enrolled_db(cli_corpus, tmp_path_factory):
    db = tmp_path_factory.mktemp("db") / "gallery.db"
    code = main(["enroll", str(cli_corpus / "manifest.csv"), "--db", str(db)])
    assert code == 0
    return db


@pytest.fixture
def extract_calls(monkeypatch):
    """The arguments of every _extract_graph call the CLI makes, so a
    test can show that a refused id cost no extraction."""
    made = []

    def counted(*args):
        made.append(args)
        return extract_graph(*args)

    extract_graph = cli._extract_graph
    monkeypatch.setattr(cli, "_extract_graph", counted)
    return made


class TestGenCorpus:
    def test_deterministic(self, cli_corpus, tmp_path, capsys):
        assert main([
            "gen-corpus", "--out", str(tmp_path), "--seed", "9",
            "--subjects", "4", "--images", "2", "--size", "64",
        ]) == 0
        assert "wrote 8 images" in capsys.readouterr().out
        assert (
            (tmp_path / "manifest.csv").read_text()
            == (cli_corpus / "manifest.csv").read_text()
        )
        assert (
            (tmp_path / "s000_i00.pgm").read_bytes()
            == (cli_corpus / "s000_i00.pgm").read_bytes()
        )

    def test_single_subject_fails(self, tmp_path, capsys):
        assert main(["gen-corpus", "--out", str(tmp_path), "--subjects", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: n_subjects must be at least 2, got 1\n"


class TestExtract:
    def test_creates_db(self, cli_corpus, tmp_path, capsys):
        db = tmp_path / "one.db"
        code = main([
            "extract", str(cli_corpus / "s000_i00.pgm"), "--db", str(db),
            "--subject", "s000",
        ])
        assert code == 0
        assert db.exists()
        assert "keypoints" in capsys.readouterr().out

    def test_duplicate_key_fails(self, cli_corpus, tmp_path, capsys, extract_calls):
        db = tmp_path / "dup.db"
        img = str(cli_corpus / "s000_i00.pgm")
        assert main(["extract", img, "--db", str(db)]) == 0
        assert main(["extract", img, "--db", str(db)]) == 1
        assert "duplicate (subject_id, image_id) ('s000_i00', 's000_i00')" in (
            capsys.readouterr().err
        )
        # the key the db holds is refused before a second extraction
        assert len(extract_calls) == 1

    def test_whitespace_subject_fails(self, cli_corpus, tmp_path, capsys, extract_calls):
        # a line break in the id would split identify's output and the
        # export; an explicit empty id must not fall back to the stem
        db = tmp_path / "ws.db"
        img = str(cli_corpus / "s000_i00.pgm")
        for flag, value, message in [
            ("--subject", "c\nd", "whitespace"),
            ("--subject", "a b", "subject id 'a b' holds whitespace"),
            ("--subject", "", "subject id is empty"),
            ("--image-id", "", "image id is empty"),
        ]:
            assert main(["extract", img, "--db", str(db), flag, value]) == 1
            assert message in capsys.readouterr().err
            assert not db.exists()
        # every id is refused before the image is extracted
        assert extract_calls == []

    def test_missing_file(self, tmp_path, capsys):
        code = main(["extract", str(tmp_path / "no.pgm"), "--db", str(tmp_path / "x.db")])
        assert code == 1
        assert "file not found" in capsys.readouterr().err

    def test_featureless_image_fails(self, tmp_path, capsys):
        flat = tmp_path / "flat.pgm"
        save_pgm(GrayImage(np.full((64, 64), 120, dtype=np.uint8)), flat)
        assert main(["extract", str(flat), "--db", str(tmp_path / "x.db")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEnroll:
    @pytest.mark.parametrize("last_key, message", [
        (("s003", ""), "image id is empty"),
        (("s000", "i00"), "duplicate (subject_id, image_id) ('s000', 'i00')"),
    ], ids=["empty_id", "repeated_key"])
    def test_bad_last_row_extracts_nothing(
        self, cli_corpus, tmp_path, capsys, extract_calls, last_key, message
    ):
        # the last train row is the one extracted last, so without the
        # up-front check every other row would be extracted first
        header, *rows = (cli_corpus / "manifest.csv").read_text().splitlines()
        rows = [row.split(",") for row in rows]
        for row in rows:
            row[0] = str(cli_corpus / row[0])
        last = max(i for i, row in enumerate(rows) if row[4] == "train")
        rows[last][1:3] = last_key
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        db = tmp_path / "g.db"
        assert main(["enroll", str(manifest), "--db", str(db)]) == 1
        assert message in capsys.readouterr().err
        assert extract_calls == []
        assert not db.exists()

    def test_no_train_rows_fails(self, cli_corpus, tmp_path, capsys, extract_calls):
        # the corpus manifest's test rows alone
        header, *rows = (cli_corpus / "manifest.csv").read_text().splitlines()
        tests = [row for row in rows if row.endswith(",test")]
        assert tests
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join([header, *tests]) + "\n")
        db = tmp_path / "g.db"
        assert main(["enroll", str(manifest), "--db", str(db)]) == 1
        assert "no rows with role 'train'" in capsys.readouterr().err
        assert extract_calls == []
        assert not db.exists()


@pytest.mark.parametrize("command", ["extract", "enroll"])
def test_db_in_missing_directory_extracts_nothing(
    cli_corpus, tmp_path, capsys, extract_calls, command
):
    # the save at the end would fail on the missing directory, naming
    # its temporary file, after every image had been extracted
    db = tmp_path / "missing_dir" / "g.db"
    source = {"extract": "s000_i00.pgm", "enroll": "manifest.csv"}[command]
    assert main([command, str(cli_corpus / source), "--db", str(db)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {db}:")
    assert ".tmp" not in err
    assert extract_calls == []
    assert not db.parent.exists()


class TestIdentify:
    def test_verbatim_probe_ranks_first_with_zero(self, cli_corpus, enrolled_db, capsys):
        code = main([
            "identify", str(cli_corpus / "s002_i00.pgm"), "--db", str(enrolled_db),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        rank1 = lines[0].split()
        assert rank1[0] == "1"
        assert rank1[1] == "s002"
        assert float(rank1[2]) == 0.0

    def test_top_limits_output(self, cli_corpus, enrolled_db, capsys):
        code = main([
            "identify", str(cli_corpus / "s001_i01.pgm"), "--db", str(enrolled_db),
            "--top", "2", "--constraint", "gibmc",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_top_zero_lists_every_subject(self, cli_corpus, enrolled_db, capsys):
        code = main([
            "identify", str(cli_corpus / "s001_i01.pgm"), "--db", str(enrolled_db),
            "--top", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(line.split()[1] for line in lines) == [
            "s000", "s001", "s002", "s003"
        ]

    def test_negative_top_rejected(self, cli_corpus, enrolled_db, capsys):
        # a negative count once printed the whole ranking
        with pytest.raises(SystemExit) as exc:
            main([
                "identify", str(cli_corpus / "s001_i01.pgm"), "--db", str(enrolled_db),
                "--top", "-1",
            ])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_csv_output(self, cli_corpus, enrolled_db, capsys):
        code = main([
            "identify", str(cli_corpus / "s000_i01.pgm"), "--db", str(enrolled_db),
            "--csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "s000_i01"
            assert fields[2] == "rpbmc"

    def test_csv_rejects_unwritable_subject_id(
        self, cli_corpus, enrolled_db, tmp_path, capsys
    ):
        # an unquoted comma would split the row into 11 fields, so a
        # gallery refuses such a subject id before it is stored
        db = tmp_path / "comma.db"
        img = cli_corpus / "s000_i00.pgm"
        assert main(["extract", str(img), "--db", str(db), "--subject", "a,b"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: subject id 'a,b' holds a comma\n"
        assert not db.exists()
        # the probe's image id comes from its file name, not the gallery
        probe = tmp_path / "a,b.pgm"
        probe.write_bytes(img.read_bytes())
        assert main(["identify", str(probe), "--db", str(enrolled_db), "--csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: probe image id 'a,b' cannot go into a CSV row\n"

    def test_config_mismatch_fails(self, cli_corpus, enrolled_db, tmp_path, capsys):
        # the header digest of a gallery from a detector that did not
        # double its input, under an intact CRC
        db = tmp_path / "undoubled.db"
        db.write_bytes(with_digest(enrolled_db.read_bytes(), 0x286464ACFD51A5B0))
        saved = db.read_bytes()
        img = str(cli_corpus / "s000_i00.pgm")
        out = tmp_path / "undoubled.txt"
        want = (
            "error: gallery was built by another detector: "
            f"digest 286464acfd51a5b0, not {DETECTOR_DIGEST:016x}\n"
        )
        for argv in (
            ["identify", img, "--db", str(db)],
            ["extract", img, "--db", str(db)],
            ["enroll", str(cli_corpus / "manifest.csv"), "--db", str(db)],
            ["export", str(db), "--out", str(out)],
        ):
            assert main(argv) == 1, argv[0]
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", want), argv[0]
            assert db.read_bytes() == saved, argv[0]
        assert not out.exists()

    def test_empty_db_fails(self, cli_corpus, tmp_path, capsys):
        empty = tmp_path / "empty.db"
        save(GalleryDb(), empty)
        code = main([
            "identify", str(cli_corpus / "s000_i00.pgm"), "--db", str(empty),
        ])
        assert code == 1
        assert "no enrolled images" in capsys.readouterr().err


class TestMatch:
    def test_same_image_scores_zero(self, cli_corpus, capsys):
        img = str(cli_corpus / "s003_i00.pgm")
        assert main(["match", img, img]) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert fields["constraint"] == "rpbmc"
        assert float(fields["combined"]) == 0.0
        assert float(fields["vertex_raw"]) == 0.0
        assert int(fields["n_vertex_pairs"]) >= 2

    def test_cross_subject_scores_positive(self, cli_corpus, capsys):
        code = main([
            "match",
            str(cli_corpus / "s000_i00.pgm"),
            str(cli_corpus / "s001_i00.pgm"),
            "--constraint", "gibmc",
        ])
        assert code == 0
        fields = dict(
            line.split(": ", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert fields["constraint"] == "gibmc"
        assert float(fields["combined"]) > 0.0


class TestEvaluate:
    def test_both_constraints_write_artifacts(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main([
            "evaluate", str(cli_corpus / "manifest.csv"), "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        for constraint in ("gibmc", "rpbmc"):
            assert f"{constraint}: average prior EER" in stdout
            for name in ("scores.csv", "roc_G1.csv", "roc_G2.csv",
                         "wer_report.csv", "report.txt"):
                assert (out / constraint / name).exists()
        summary = (out / "report.txt").read_text()
        assert "gibmc" in summary and "rpbmc" in summary

    def test_one_constraint_writes_its_directory_only(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "eval"
        manifest = str(cli_corpus / "manifest.csv")
        assert main(["evaluate", manifest, "--out", str(out), "--constraint", "gibmc"]) == 0
        assert "gibmc: average prior EER" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["gibmc", "report.txt"]
        assert "rpbmc" not in (out / "report.txt").read_text()

    def test_group_overlap_fails(self, cli_corpus, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        img = cli_corpus / "s000_i00.pgm"
        manifest.write_text(
            "image_path,subject_id,image_id,group,role\n"
            f"{img},s000,i00,G1,train\n"
            f"{img},s000,i01,G2,test\n"
        )
        assert main(["evaluate", str(manifest), "--out", str(tmp_path / "o")]) == 1
        assert "both groups" in capsys.readouterr().err

    def test_group_overlap_fails_before_extracting(
        self, cli_corpus, tmp_path, capsys, extract_calls
    ):
        # the corpus manifest with its last row moved to the other group
        head, *lines = (cli_corpus / "manifest.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for row in rows:
            row[0] = str(cli_corpus / row[0])
        subject = rows[-1][1]
        rows[-1][3] = "G1" if rows[-1][3] == "G2" else "G2"
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n".join([head, *map(",".join, rows)]) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: subject {subject!r} assigned to both groups\n"
        assert extract_calls == []
        assert not out.exists()

    def test_one_file_under_two_subjects_fails_before_extracting(
        self, tmp_path, capsys, extract_calls
    ):
        corpus = tmp_path / "c"
        assert main([
            "gen-corpus", "--out", str(corpus), "--subjects", "4",
            "--images", "3", "--size", "64",
        ]) == 0
        # s001's second image row names s000's file
        text = (corpus / "manifest.csv").read_text()
        assert "s001_i01.pgm,s001," in text
        (corpus / "manifest.csv").write_text(
            text.replace("s001_i01.pgm,s001,", "s000_i01.pgm,s001,")
        )
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["evaluate", str(corpus / "manifest.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "s000_i01.pgm is listed under subjects 's000' and 's001'" in err
        assert extract_calls == []
        assert not out.exists()

    def test_out_naming_a_file_fails_before_extracting(
        self, cli_corpus, tmp_path, capsys, extract_calls
    ):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        manifest = str(cli_corpus / "manifest.csv")
        assert main(["evaluate", manifest, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{out / 'gibmc'}" in err
        assert extract_calls == []
        assert out.read_text() == "kept\n"


class TestExport:
    def test_dumps_text(self, enrolled_db, tmp_path, capsys):
        out = tmp_path / "dump.txt"
        assert main(["export", str(enrolled_db), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert any(line.startswith("s000 ") for line in lines)


class TestParsing:
    @pytest.mark.parametrize(
        "command",
        ["extract", "enroll", "identify", "match", "evaluate", "gen-corpus", "export"],
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,field",
        [
            pytest.param(["--seed", "-1"], "seed", id="seed"),
            pytest.param(["--images", "0"], "images_per_subject", id="images"),
            pytest.param(["--size", "0"], "size", id="size"),
            pytest.param(["--subjects", "1"], "n_subjects", id="subjects"),
        ],
    )
    def test_out_of_range_value_names_field(self, tmp_path, capsys, argv, field):
        out = tmp_path / "corpus"
        assert main(["gen-corpus", "--out", str(out)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: [^\n]*\b{field}\b[^\n]*\n", captured.err)
        assert not out.exists()

    def test_unparsable_number_rejected(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--out", str(out), "--seed", "abc"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,argv",
        [
            pytest.param("match", ["--blend", "0.3"], id="blend"),
            pytest.param("match", ["--multipliers", "1", "2", "3"], id="multipliers"),
            pytest.param("match", ["--scales-per-octave", "3"], id="scales"),
            pytest.param("match", ["--base-sigma", "1.6"], id="sigma"),
            pytest.param("match", ["--contrast-threshold", "0.03"], id="contrast"),
            pytest.param("match", ["--edge-ratio", "10"], id="edge"),
            pytest.param("match", ["--ratio", "0.8"], id="ratio-match"),
            pytest.param("identify", ["--ratio", "0.8"], id="ratio-identify"),
            pytest.param("evaluate", ["--ratio", "0.8"], id="ratio-evaluate"),
            pytest.param("enroll", ["--role", "test"], id="role"),
            *(
                pytest.param(command, ["--no-double-input"], id=f"double-{command}")
                for command in ("extract", "enroll", "identify", "match", "evaluate")
            ),
        ],
    )
    def test_fixed_weights_take_no_flag(self, cli_corpus, tmp_path, capsys, command, argv):
        # the band weights, the even blend, Lowe's ratio and standard
        # SIFT's values, input doubling included, are fixed, and enroll
        # always takes the manifest's train rows
        img = str(cli_corpus / "s000_i00.pgm")
        manifest = str(cli_corpus / "manifest.csv")
        prefix = {
            "extract": ["extract", img, "--db", str(tmp_path / "g.db")],
            "match": ["match", img, img],
            "identify": ["identify", img, "--db", str(tmp_path / "g.db")],
            "evaluate": ["evaluate", manifest, "--out", str(tmp_path / "eval")],
            "enroll": ["enroll", manifest, "--db", str(tmp_path / "g.db")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(prefix + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.+)"$', text, re.M).group(1) == graphsift.__version__
