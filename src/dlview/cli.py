"""Batch command-line driver for the vessel-tree pipeline.

Corpus convention: one `.dltree` per component tree, named
`<subject>_<region>.dltree`.  All outputs are UTF-8 with LF line endings
and written atomically (temp file + rename), with the mode a plain open()
gives.  Exit codes: 0 ok, 1 data error, 2 usage error, 3 scan found flags.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import fields, replace
from itertools import count
from pathlib import Path

from . import detect, edit, ingest, stats, synth
from .core import BinaryTree, CorpusEntry
from .detect import DetectorConfig, FlagKind
from .extract import extract_binary_tree
from .layout import build_layout
from .render import (MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, RenderOptions,
                     render_svg)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_FLAGS_FOUND = 3


class DataError(Exception):
    pass


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file with the mode a plain open() gives, 0o666 less the umask
    # (mkstemp's is 0o600); O_EXCL never follows a planted link
    for k in count():
        tmp = path.parent / f".tmp-{os.getpid()}-{k}{path.suffix}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # another writer's, or left by an earlier process
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: Path) -> str:
    """The file's UTF-8 text, line breaks as written; a DataError names the
    path of a file that is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: {e}")


def _load_tree(path: Path) -> BinaryTree:
    try:
        return ingest.parse_dltree(_read_text(path))
    except ValueError as e:
        raise DataError(f"{path}: {e}")


def _load_corpus(directory: Path) -> dict[tuple[str, str], BinaryTree]:
    paths = sorted(directory.glob("*.dltree"), key=str)
    if not paths:
        raise DataError(f"no .dltree files in {directory}")
    corpus = {}
    source = {}
    for p in paths:
        tree = _load_tree(p)
        key = (tree.subject_id, tree.region.value)
        if key in corpus:
            raise DataError(f"{source[key]} and {p} both hold tree {key[0]}/{key[1]}")
        corpus[key] = tree
        source[key] = p
    return corpus


# bytes in one file name on common file systems (NAME_MAX)
_NAME_MAX = 255


def _tree_filename(tree: BinaryTree) -> str:
    """`<subject>_<region>.dltree`; a DataError if the name is too long to create."""
    name = f"{tree.subject_id}_{tree.region.value}.dltree"
    if len(name.encode("utf-8")) > _NAME_MAX:
        raise DataError(f"subject {tree.subject_id!r} is too long to name an output file: "
                        f"{name!r} passes the {_NAME_MAX}-byte file-name limit")
    return name


def _read_config(path: Path) -> dict[str, int | float]:
    """Detector settings from `key = value` lines, keyed by DetectorConfig field."""
    types = {f.name: f.type for f in fields(DetectorConfig)}
    values = {}
    first = {}  # key -> the line that gave it
    for lineno, _, _, line in ingest._lines(_read_text(path)):
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in types:
            raise DataError(f"{path}:{lineno}: unknown key {key!r} "
                            f"(expected one of {', '.join(types)})")
        if key in first:
            raise DataError(f"{path}:{lineno}: key {key!r} given twice "
                            f"(first on line {first[key]})")
        first[key] = lineno
        try:
            values[key] = int(value) if types[key] == "int" else float(value)
            replace(DetectorConfig(), **{key: values[key]})
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad value {value!r} for {key}: {e}")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args) -> int:
    out_dir = Path(args.out_dir)
    outputs = {}  # every input is read and named before anything is written
    for path in map(Path, args.inputs):
        text = _read_text(path)
        try:
            tree = extract_binary_tree(ingest.parse_vess(text))
            name = _tree_filename(tree)
        except (ValueError, DataError) as e:  # a ParseError, a graph extraction
            raise DataError(f"{path}: {e}")   # rejects, or a name too long
        target = out_dir / name
        first, _ = outputs.setdefault(target, (path, ingest.serialize_dltree(tree)))
        if first is not path:
            raise DataError(f"{first} and {path} both extract to {target}")
    for target, (_, data) in outputs.items():
        _write_atomic(target, data)
    return EXIT_OK


def cmd_render(args) -> int:
    out_dir = Path(args.out_dir)
    options = RenderOptions(width=args.width, height=args.height)
    # RenderOptions accepts any positive int; a figure needs room inside its margins
    for flag, size, margins in (("--width", options.width, MARGIN_LEFT + MARGIN_RIGHT),
                                ("--height", options.height, MARGIN_TOP + MARGIN_BOTTOM)):
        if size <= margins:
            raise DataError(f"{flag} {size} leaves no room to plot: the margins take "
                            f"{margins:g} px, so the minimum is {math.floor(margins) + 1}")
    outputs = {}  # every output name is checked before anything is written
    for path in map(Path, args.inputs):
        svg_path = out_dir / (path.stem + ".svg")
        if outputs.setdefault(svg_path, path) is not path:
            raise DataError(f"{outputs[svg_path]} and {path} both render to {svg_path}")
    for svg_path, path in outputs.items():
        svg = render_svg(build_layout(_load_tree(path), args.jitter_seed_salt), options)
        _write_atomic(svg_path, svg)
    return EXIT_OK


def cmd_scan(args) -> int:
    corpus = _load_corpus(Path(args.directory))
    settings = _read_config(Path(args.config)) if args.config else {}
    if args.epsilon_mm is not None:  # the flag wins over the file
        settings["epsilon_mm"] = args.epsilon_mm
    config = DetectorConfig(**settings)
    # trees in (subject, region) order, each tree's flags in (kind, node) order
    flags = [f for _, tree in sorted(corpus.items()) for f in detect.scan_tree(tree, config)]
    _write_atomic(Path(args.report), detect.flags_to_tsv(flags).encode("utf-8"))
    return EXIT_FLAGS_FOUND if flags else EXIT_OK


def cmd_apply_edits(args) -> int:
    corpus = _load_corpus(Path(args.directory))
    try:
        script = edit.parse_script(_read_text(Path(args.script)))
        edited = edit.apply_script(corpus, script)
    except edit.EditScriptError as e:
        raise DataError(f"{args.script}: {e}")
    out_dir = Path(args.out_dir)
    targets = [out_dir / _tree_filename(tree) for tree in edited.values()]  # before any write
    for target, tree in zip(targets, edited.values()):
        _write_atomic(target, ingest.serialize_dltree(tree))
    return EXIT_OK


_INJECT_KINDS = {kind.value.lower(): kind for kind in FlagKind}


def parse_inject_spec(spec: str) -> dict[FlagKind, int]:
    """`vein=3,misconnection=2,startingpoint=1` -> per-kind injection counts."""
    counts: dict[FlagKind, int] = {}
    if not spec:
        return counts
    for part in spec.split(","):
        name, sep, num = part.strip().partition("=")
        kind = _INJECT_KINDS.get(name.lower())
        if not sep or kind is None or kind in counts or not num.isdecimal():
            raise DataError(f"bad --inject entry {part!r} (expected kind=count, each of "
                            f"{', '.join(_INJECT_KINDS)} at most once)")
        counts[kind] = int(num)
    return counts


def cmd_synth(args) -> int:
    counts = parse_inject_spec(args.inject)
    entries = synth.generate_corpus(args.subjects, args.effect, args.seed)
    rng = random.Random(args.seed ^ 0x5EED)
    order = list(range(len(entries)))
    rng.shuffle(order)
    shared = iter(order)
    plan = [(kind, shared) for kind in FlagKind for _ in range(counts.get(kind, 0))]
    entries, truth, repairs = synth.inject_plan(entries, plan, rng)
    if len(truth) < len(plan):
        # the shared iterator ran dry at the first unmet item, so no later item is met
        raise DataError(f"not enough suitable trees to inject {plan[len(truth)][0].value}")

    out_dir = Path(args.out_dir)
    ages = {}
    for entry in entries:
        _write_atomic(out_dir / _tree_filename(entry.tree),
                      ingest.serialize_dltree(entry.tree))
        ages[entry.tree.subject_id] = entry.covariate
    _write_atomic(out_dir / "repairs.edits", edit.format_script(repairs).encode("utf-8"))
    truth_rows = sorted(f"{subject}\t{region}\t{kind.value}\t{locus}"
                        for subject, region, kind, locus in truth)
    _write_atomic(out_dir / "ground_truth.tsv",
                  ("subject\tregion\tkind\tnode\n"
                   + "".join(r + "\n" for r in truth_rows)).encode("utf-8"))
    age_lines = [_COVARIATES_HEADER] + [f"{s}\t{a:.4f}" for s, a in sorted(ages.items())]
    _write_atomic(out_dir / "ages.tsv", "".join(l + "\n" for l in age_lines).encode("utf-8"))
    return EXIT_OK


_COVARIATES_HEADER = "subject\tage"  # line 1 of an ages.tsv; any other line 1 is a row
# larger ages would overflow the regression's sums of squared deviations
_MAX_COVARIATE = 1e150


def _read_covariates(path: Path) -> dict[str, float]:
    ages = {}
    for lineno, _, line in ingest._pieces(_read_text(path)):
        if not line.strip() or (lineno == 1 and line == _COVARIATES_HEADER):
            continue
        try:
            subject, age = line.split("\t")
            # the .dltree number grammar; a number past float range reads as inf
            if not ingest._NUM_RE.fullmatch(age) or abs(float(age)) > _MAX_COVARIATE:
                raise ValueError("age is not a number in range")
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad covariate line {line!r}")
        if subject in ages:
            raise DataError(f"{path}:{lineno}: subject {subject!r} listed twice")
        ages[subject] = float(age)
    return ages


def _corpus_entries(directory: Path, ages: dict[str, float]) -> list[CorpusEntry]:
    corpus = _load_corpus(directory)
    entries = []
    for (subject, _), tree in sorted(corpus.items()):
        if subject not in ages:
            raise DataError(f"no covariate for subject {subject!r}")
        entries.append(CorpusEntry(tree, ages[subject]))
    return entries


def _region_age_analysis(directory: str, entries: list[CorpusEntry]):
    try:
        return stats.region_age_analysis(entries)
    except ValueError as e:  # too few trees in a region, or a constant covariate
        raise DataError(f"{directory}: {e}")


def cmd_stats(args) -> int:
    ages = _read_covariates(Path(args.covariates))
    entries = _corpus_entries(Path(args.directory), ages)
    primary = _region_age_analysis(args.directory, entries)
    compared = _corpus_entries(Path(args.compare), ages) if args.compare else []
    baseline = _region_age_analysis(args.compare, compared) if args.compare else None
    summary = None
    if args.flags:
        try:
            records = detect.flags_from_tsv(_read_text(Path(args.flags)))
        except ValueError as e:
            raise DataError(f"{args.flags}: {e}")
        trees = {}  # (subject, region) -> the node ids of its tree in each corpus
        for e in entries + compared:
            trees.setdefault((e.tree.subject_id, e.tree.region), []).append(e.tree.ids)
        where = f"{args.directory} or {args.compare}" if args.compare else args.directory
        for r in records:
            ids = trees.get((r.subject_id, r.region), ())
            if not any(r.node_id in tree_ids for tree_ids in ids):
                what = f"node {r.node_id!r} in tree" if ids else "tree"
                raise DataError(f"{args.flags}: no {what} {r.subject_id}/{r.region.value} in {where}")
        # every tree of the corpus is a point of its region's regression
        summary = stats.summarize_flags(records, sum(r.n for r in primary.values()))
    # written only once every input has been read and checked
    _write_atomic(Path(args.out),
                  stats.comparison_to_tsv(primary, baseline).encode("utf-8"))
    if summary is not None:
        _write_atomic(Path(args.summary_out),
                      stats.summary_to_tsv(summary).encode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------------------


# threads ran slower than one loop on this GIL-bound work (see README);
# the option stays so that existing command lines still parse
_JOBS_HELP = "accepted and ignored; every command runs serially"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlview",
        description="Extract, visualize, flag, correct and analyze vessel component trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="convert .vess graphs to .dltree component trees")
    p.add_argument("inputs", nargs="+", metavar="in.vess")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("render", help="render .dltree files as SVG figures")
    p.add_argument("inputs", nargs="+", metavar="in.dltree")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--width", type=int, default=1000)
    p.add_argument("--height", type=int, default=800)
    p.add_argument("--jitter-seed-salt", default="")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("scan", help="run the discrepancy detectors over a corpus")
    p.add_argument("directory")
    p.add_argument("--config")
    p.add_argument("--report", required=True)
    p.add_argument("--epsilon-mm", dest="epsilon_mm", type=float)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("apply-edits", help="apply a correction script to a corpus")
    p.add_argument("directory")
    p.add_argument("--script", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_apply_edits)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--effect", type=float, default=0.0)
    p.add_argument("--inject", default="")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", help="regression tables and flag summaries")
    p.add_argument("directory")
    p.add_argument("--covariates", required=True)
    p.add_argument("--compare")
    p.add_argument("--out", required=True)
    p.add_argument("--flags")
    p.add_argument("--summary-out")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats" and (args.flags is None) != (args.summary_out is None):
        parser.error("stats --flags needs --summary-out" if args.summary_out is None
                     else "stats --summary-out needs --flags")
    try:
        return args.func(args)
    except (DataError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
