"""Command-line surface: extract, enroll, identify, match, evaluate,
gen-corpus, export.

All knobs are flags (no environment variables), every command is
deterministic given its inputs, and any pipeline error exits 1 with a
one-line diagnostic on standard error. The detector takes no flags: it
is standard SIFT with fixed values (see graphsift.sift), input doubling
included, and every command that reads a gallery refuses one built by
any other detector, one that did not double its input among them, by
the detector digest in its header (store.load raises ForeignDetector).
The matcher's ratio test is fixed too, at Lowe's 0.8.
Numeric flags only parse here: generate_corpus checks their ranges, so
a value out of range exits 1 with a message naming the setting, while
one that does not parse as a number exits 2 from argparse.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import generate_corpus, read_manifest
from .errors import EmptyGallery, GraphSiftError
from .evaluation import normalize_groups, run_protocol
from .facegraph import FaceGraph, build_graph
from .imageio import histogram_equalize, load_image
from .matcher import REPORT_HEADER, Constraint, identify, match, report_row
from .sift import extract_features
from .store import (
    FORMAT_VERSION,
    GalleryDb,
    _check_keys,
    export_text,
    load,
    merge,
    save,
)


def _non_negative_int(text: str) -> int:
    # the one rule the CLI owns: identify returns the whole ranking
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return v


def _add_constraint_flag(p: argparse.ArgumentParser, allow_both: bool = False) -> None:
    choices = [c.value for c in Constraint] + (["both"] if allow_both else [])
    default = "both" if allow_both else "rpbmc"
    p.add_argument(
        "--constraint", choices=choices, default=default,
        help=f"matching constraint (default {default})",
    )


def _extract_graph(path: Path, subject_id: str, image_id: str) -> FaceGraph:
    img = histogram_equalize(load_image(path))
    return build_graph(extract_features(img), subject_id, image_id)


def _load_or_new_db(path: Path) -> GalleryDb:
    if path.exists():
        return load(path)
    # checked before the extractions a failed save would waste
    if not path.parent.is_dir():
        raise GraphSiftError(f"{path}: directory {path.parent} does not exist")
    return GalleryDb()


def cmd_extract(args: argparse.Namespace) -> int:
    image = Path(args.image)
    subject = image.stem if args.subject is None else args.subject
    image_id = image.stem if args.image_id is None else args.image_id
    db = _load_or_new_db(Path(args.db))
    # the gallery's id rule, checked before the extraction it would waste
    _check_keys(db.entries, ((subject, image_id),))
    graph = _extract_graph(image, subject, image_id)
    save(merge(db, [graph]), args.db)
    print(f"{image}: {graph.n_vertices} keypoints -> {args.db}")
    return 0


def cmd_enroll(args: argparse.Namespace) -> int:
    rows = [r for r in read_manifest(args.manifest) if r.role == "train"]
    if not rows:
        raise GraphSiftError(f"{args.manifest}: no rows with role 'train'")
    db = _load_or_new_db(Path(args.db))
    _check_keys(db.entries, tuple((r.subject_id, r.image_id) for r in rows))
    graphs = []
    for row in rows:
        g = _extract_graph(row.image_path, row.subject_id, row.image_id)
        graphs.append(g)
        print(f"{row.image_path.name}: {g.n_vertices} keypoints")
    save(merge(db, graphs), args.db)
    print(f"enrolled {len(graphs)} images -> {args.db}")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    db = load(args.db)
    if not db.entries:
        raise EmptyGallery(f"{args.db} holds no enrolled images")
    probe_path = Path(args.probe)
    probe = _extract_graph(probe_path, "?", probe_path.stem)
    constraint = Constraint(args.constraint)
    ranking = identify(probe, list(db.entries), constraint)
    if args.top > 0:
        ranking = ranking[: args.top]
    if args.csv:
        # every row is formatted first: an id that cannot go into a row
        # fails the command before anything is printed
        rows = [report_row(probe.image_id, s, score) for s, score in ranking]
        print("\n".join([REPORT_HEADER, *rows]))
    else:
        for rank, (subject, score) in enumerate(ranking, start=1):
            print(f"{rank}  {subject}  {score.combined:.9g}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    g1 = _extract_graph(Path(args.gallery_image), "gallery", Path(args.gallery_image).stem)
    g2 = _extract_graph(Path(args.probe_image), "probe", Path(args.probe_image).stem)
    score = match(g1, g2, Constraint(args.constraint))
    print(f"constraint: {score.constraint.value}")
    for name in (
        "vertex_raw", "edge_raw", "vertex_weighted", "edge_weighted", "combined",
    ):
        print(f"{name}: {getattr(score, name):.9g}")
    print(f"n_vertex_pairs: {score.n_vertex_pairs}")
    print(f"n_edge_pairs: {score.n_edge_pairs}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    rows = read_manifest(args.manifest)
    constraints = (
        [Constraint.GIBMC, Constraint.RPBMC]
        if args.constraint == "both"
        else [Constraint(args.constraint)]
    )
    out = Path(args.out)
    # checked before the extractions a late failure would waste: the
    # group assignment, and the directories run_protocol writes into
    groups = normalize_groups((r.subject_id, r.group) for r in rows)
    # one graph per file, so a file carries one subject
    subject_of: dict[Path, str] = {}
    for row in rows:
        first = subject_of.setdefault(row.image_path, row.subject_id)
        if first != row.subject_id:
            raise ValueError(
                f"{row.image_path} is listed under subjects {first!r} "
                f"and {row.subject_id!r}"
            )
    for constraint in constraints:
        (out / constraint.value).mkdir(parents=True, exist_ok=True)

    graphs: dict[Path, FaceGraph] = {}
    for row in rows:
        if row.image_path not in graphs:
            graphs[row.image_path] = _extract_graph(
                row.image_path, row.subject_id, row.image_id
            )
    gallery = [graphs[r.image_path] for r in rows if r.role == "train"]
    probes = [graphs[r.image_path] for r in rows if r.role == "test"]

    summary = []
    for constraint in constraints:
        result = run_protocol(
            gallery, probes, groups, constraint, out / constraint.value
        )
        line = (
            f"{constraint.value}: average prior EER "
            f"{100.0 * result.average_eer:.2f}% "
            f"(G1 {100.0 * result.eer['G1']:.2f}%, "
            f"G2 {100.0 * result.eer['G2']:.2f}%)"
        )
        summary.append(line)
        print(line)
    (out / "report.txt").write_text("\n".join(summary) + "\n")
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    manifest = generate_corpus(
        args.out,
        seed=args.seed,
        n_subjects=args.subjects,
        images_per_subject=args.images,
        size=args.size,
    )
    print(f"wrote {args.subjects * args.images} images, manifest {manifest}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    export_text(load(args.db), args.out)
    print(f"exported {args.db} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsift",
        description="Keypoint-graph face identification toolkit "
        f"(gallery format v{FORMAT_VERSION}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract one image into a gallery db")
    p.add_argument("image", help="input image (binary PGM, or 8-bit gray PNG)")
    p.add_argument("--db", required=True, help="gallery db to create or extend")
    p.add_argument("--subject", help="subject id (default: image stem)")
    p.add_argument("--image-id", help="image id (default: image stem)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("enroll", help="batch-extract a manifest's train rows into a db")
    p.add_argument("manifest", help="corpus manifest CSV")
    p.add_argument("--db", required=True)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("identify", help="rank gallery subjects for a probe")
    p.add_argument("probe", help="probe image")
    p.add_argument("--db", required=True)
    p.add_argument("--top", type=_non_negative_int, default=0,
                   help="print only the best N (default 0: all)")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    _add_constraint_flag(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("match", help="score one gallery/probe image pair")
    p.add_argument("gallery_image")
    p.add_argument("probe_image")
    _add_constraint_flag(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("evaluate", help="two-group verification protocol")
    p.add_argument("manifest", help="corpus manifest CSV")
    p.add_argument("--out", required=True, help="output directory for reports")
    _add_constraint_flag(p, allow_both=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--images", type=int, default=4,
                   help="images per subject (default 4)")
    p.add_argument("--size", type=int, default=128)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("export", help="dump a gallery db as text")
    p.add_argument("db")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (GraphSiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
