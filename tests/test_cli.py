import contextlib
import hashlib
import io
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlview.cli import (
    EXIT_DATA_ERROR,
    EXIT_FLAGS_FOUND,
    EXIT_OK,
    DataError,
    _read,
    _read_covariates,
    main,
    parse_inject_spec,
)
from dlview.core import BinaryTree, Region
from dlview.detect import FlagKind, FlagRecord, flags_from_tsv, flags_to_tsv
from dlview.edit import (
    DeleteLeaf,
    DeleteSubtree,
    ScriptLine,
    TrimRoot,
    apply_script,
    format_script,
    parse_script,
)
from dlview.ingest import parse_dltree, serialize_dltree, serialize_vess

from conftest import random_binary_tree, random_vess_graph

MINIMAL_VESS = """\
HEADER sub1 B
POINT p1 0 0 0 0.5
POINT p2 1 0 0 0.4
SEGMENT 1 p1 p2
ROOT 1
"""


def run(*argv):
    return main(list(argv))


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run("scan")  # missing required --report
    assert exc.value.code == 2


def test_extract_and_render(tmp_path):
    vess = tmp_path / "a.vess"
    vess.write_text(MINIMAL_VESS)
    out = tmp_path / "trees"
    assert run("extract", str(vess), "--out-dir", str(out)) == EXIT_OK
    tree_file = out / "sub1_B.dltree"
    assert tree_file.exists()
    svg_dir = tmp_path / "figs"
    assert run("render", str(tree_file), "--out-dir", str(svg_dir)) == EXIT_OK
    svg = (svg_dir / "sub1_B.svg").read_bytes()
    assert svg.startswith(b"<?xml")


def test_extract_error_names_the_input(tmp_path, capsys):
    vess = tmp_path / "three_roots.vess"
    vess.write_text("HEADER g B\nPOINT p1 0 0 0 1\nPOINT p2 1 0 0 1\n"
                    "SEGMENT 1 p1 p2\nSEGMENT 2 p1 p2\nSEGMENT 3 p1 p2\n"
                    "ROOT 1\nROOT 2\nROOT 3\n")
    assert run("extract", str(vess), "--out-dir", str(tmp_path / "out")) == EXIT_DATA_ERROR
    assert f"error: {vess}: 3 roots in g/B" in capsys.readouterr().err


def test_extract_rejects_a_trunk_too_thick_for_a_float(tmp_path, capsys):
    # twice the median radius of 1.7e308 overflows to inf, which .dltree cannot hold
    vess = tmp_path / "thick.vess"
    radius = "17" + "0" * 307
    vess.write_text(f"HEADER g B\nPOINT p1 0 0 0 {radius}\nPOINT p2 1 0 0 {radius}\n"
                    "SEGMENT 1 p1 p2\nROOT 1\n")
    out = tmp_path / "out"
    assert run("extract", str(vess), "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert f"error: {vess}: trunk '1' is too thick" in capsys.readouterr().err
    assert not out.exists()


def test_render_is_deterministic_across_runs_and_jobs(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "3", "--seed", "5",
               "--out-dir", str(out)) == EXIT_OK
    inputs = sorted(str(p) for p in out.glob("*.dltree"))
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert run("render", *inputs, "--out-dir", str(a_dir), "--jobs", "1") == EXIT_OK
    assert run("render", *inputs, "--out-dir", str(b_dir), "--jobs", "8") == EXIT_OK
    for pa in sorted(a_dir.glob("*.svg")):
        pb = b_dir / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_render_stops_at_a_bad_file_at_every_jobs(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "5", "--out-dir", str(out)) == EXIT_OK
    inputs = sorted(str(p) for p in out.glob("*.dltree"))
    bad = tmp_path / "bad.dltree"
    bad.write_text("HEADER s9 B\n(r:1.0\n")
    inputs.insert(4, str(bad))
    written = []
    for jobs in ("1", "2"):
        svg_dir = tmp_path / f"svg{jobs}"
        assert run("render", *inputs, "--out-dir", str(svg_dir),
                   "--jobs", jobs) == EXIT_DATA_ERROR
        written.append(sorted(p.name for p in svg_dir.glob("*.svg")))
    assert written[0] == written[1] == [Path(p).stem + ".svg" for p in inputs[:4]]


def test_render_rejects_inputs_with_one_output_name(tmp_path, capsys):
    one, two = tmp_path / "d1" / "s000_B.dltree", tmp_path / "d2" / "s000_B.dltree"
    for path in (one, two):
        path.parent.mkdir()
        path.write_text("HEADER s000 B\n(r:1.0)\n")
    svg_dir = tmp_path / "svg"
    assert run("render", str(one), str(two), "--out-dir", str(svg_dir)) == EXIT_DATA_ERROR
    assert f"{one} and {two} both render to" in capsys.readouterr().err
    assert not svg_dir.exists()


@pytest.mark.parametrize("second", ["b.vess", "a.vess"])
def test_extract_rejects_inputs_with_one_output_name(tmp_path, capsys, second):
    """Two files with one HEADER, or one file named twice."""
    one, two = tmp_path / "a.vess", tmp_path / second
    for path, radius in ((one, 1), (two, 2)):
        path.write_text(f"HEADER s B\nPOINT p1 0 0 0 {radius}\nPOINT p2 1 0 0 {radius}\n"
                        "SEGMENT 1 p1 p2\nROOT 1\n")
    out = tmp_path / "out"
    assert run("extract", str(one), str(two), "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: {one} and {two} both extract to {out / 's_B.dltree'}\n")
    assert not out.exists()


@pytest.mark.parametrize("size, problem", [
    (("--width", "100"), "--width 100 leaves no room to plot"),
    (("--width", "280"), "the minimum is 281"),
    (("--height", "100"), "the minimum is 101"),
])
def test_render_rejects_a_size_inside_the_margins(tmp_path, capsys, size, problem):
    tree = tmp_path / "s000_B.dltree"
    tree.write_text("HEADER s000 B\n(r:1.0,(a:0.5),(b:0.4))\n")
    svg_dir = tmp_path / "svg"
    assert run("render", str(tree), "--out-dir", str(svg_dir), *size) == EXIT_DATA_ERROR
    assert problem in capsys.readouterr().err
    assert not svg_dir.exists()
    assert run("render", str(tree), "--out-dir", str(svg_dir),
               "--width", "281", "--height", "101") == EXIT_OK


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.vess"
    bad.write_text("HEADER only\n")
    assert run("extract", str(bad), "--out-dir", str(tmp_path / "o")) == EXIT_DATA_ERROR
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("scan", str(empty), "--report",
               str(tmp_path / "r.tsv")) == EXIT_DATA_ERROR


def test_parse_inject_spec():
    assert parse_inject_spec("") == {}
    assert parse_inject_spec("vein=2,misconnection=1,startingpoint=3") == {
        FlagKind.VEIN: 2, FlagKind.MISCONNECTION: 1, FlagKind.STARTING_POINT: 3,
    }
    assert parse_inject_spec("Vein=0") == {FlagKind.VEIN: 0}
    for bad in ("veins=2", "vein=-1", "vein=x", "vein=", "vein=1,vein=2", "vein=1,"):
        with pytest.raises(DataError, match="bad --inject entry"):
            parse_inject_spec(bad)


def test_bad_inject_spec_exits_without_writing(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "5", "--inject", "vein=x",
               "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert "bad --inject entry 'vein=x'" in capsys.readouterr().err
    assert not out.exists()


def _digest(directory: Path) -> tuple[int, str]:
    """File count and sha256 over the sorted files, each as `name\\0bytes\\0`."""
    files = sorted(directory.iterdir())
    h = hashlib.sha256()
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return len(files), h.hexdigest()


def test_synth_inject_output_is_pinned(tmp_path):
    """Every byte synth writes (trees, ages, ground truth and repair script),
    and the bytes of its repaired trees and of its SVGs."""
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "12", "--seed", "5", "--effect", "0.005",
               "--inject", "vein=3,misconnection=2,startingpoint=2",
               "--out-dir", str(out)) == EXIT_OK
    assert _digest(out) == (
        51, "7e2e519f24bfc5a7d2898786bbe3fbb0db7aaf2f7b23c9645878782ffc1bbc07")
    assert run("apply-edits", str(out), "--script", str(out / "repairs.edits"),
               "--out-dir", str(tmp_path / "fixed")) == EXIT_OK
    assert _digest(tmp_path / "fixed") == (
        48, "2422f6fd14a546068ac0136717daf932c65d2dc23daf7b84525bab33cf7acf3a")
    assert run("render", *sorted(map(str, out.glob("*.dltree"))),
               "--out-dir", str(tmp_path / "svg")) == EXIT_OK
    assert _digest(tmp_path / "svg") == (
        48, "b09e0d7b2922415b11961bb5d558e17c7ebccbdef18e467f054ab6477f721d92")


def test_extract_output_is_pinned(tmp_path):
    rng = random.Random(7)
    inputs = []
    for i in range(40):
        graph = random_vess_graph(rng, max_segments=60, subject_id=f"g{i:02d}",
                                  region=list(Region)[i % 4])
        inputs.append(tmp_path / f"g{i:02d}.vess")
        inputs[-1].write_bytes(serialize_vess(graph))
    out = tmp_path / "trees"
    assert run("extract", *map(str, inputs), "--out-dir", str(out)) == EXIT_OK
    assert sum(p.read_bytes().count(b"(") for p in out.iterdir()) == 724
    assert _digest(out) == (
        40, "0dd6ab41f2c256511f3c332d2a3f8822381b2896da8779a9fca0b5fb9dcaccec")


def test_extract_output_of_one_and_two_root_forests_is_pinned(tmp_path):
    """Every byte extract writes for 50 forests, every third with two roots;
    the digest was taken before the graph held its points as columns."""
    rng = random.Random(2323)
    inputs = []
    for i in range(50):
        graph = random_vess_graph(rng, max_segments=80, subject_id=f"v{i:02d}",
                                  region=list(Region)[i % 4], two_roots=i % 3 == 0,
                                  min_segments=2)
        inputs.append(tmp_path / f"v{i:02d}.vess")
        inputs[-1].write_bytes(serialize_vess(graph))
    out = tmp_path / "trees"
    assert run("extract", *map(str, inputs), "--out-dir", str(out)) == EXIT_OK
    trees = [p.read_bytes() for p in out.iterdir()]
    # 17 phantom roots, 45 trees with a polyfurcation's synthetic trunk
    assert (sum(b"(phantom:_," in t for t in trees), sum(b"~1:" in t for t in trees),
            sum(t.count(b"(") for t in trees)) == (17, 45, 1700)
    assert _digest(out) == (
        50, "4d481a4c1a1bc96784d819e923575723e7e45880016870b0142be1f2a2cf5447")


def _rows(path: Path) -> list[tuple[str, ...]]:
    return sorted(tuple(line.split("\t")[:4]) for line in path.read_text().splitlines()[1:])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), subjects=st.integers(2, 4),
       counts=st.tuples(*[st.integers(0, 3)] * 3))
def test_synth_scan_repair_loop(seed, subjects, counts):
    """synth's ground truth is exactly what scan reports, and its repairs scan clean."""
    spec = ",".join(f"{k}={n}" for k, n in zip(("vein", "misconnection", "startingpoint"),
                                                counts))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus, fixed = tmp / "corpus", tmp / "fixed"
        code = run("synth", "--subjects", str(subjects), "--seed", str(seed),
                   "--inject", spec, "--out-dir", str(corpus))
        if code == EXIT_DATA_ERROR:  # too few trees that can host the asked kinds
            assert not corpus.exists()
            return
        assert code == EXIT_OK
        truth = _rows(corpus / "ground_truth.tsv")
        assert len(truth) == sum(counts)
        assert run("scan", str(corpus), "--report", str(tmp / "flags.tsv")) == (
            EXIT_FLAGS_FOUND if truth else EXIT_OK)
        assert _rows(tmp / "flags.tsv") == truth
        assert run("apply-edits", str(corpus), "--script", str(corpus / "repairs.edits"),
                   "--out-dir", str(fixed)) == EXIT_OK
        assert run("scan", str(fixed), "--report", str(tmp / "reflags.tsv")) == EXIT_OK


def test_scan_clean_corpus_exit_zero(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "3", "--seed", "11",
               "--out-dir", str(out)) == EXIT_OK
    report = tmp_path / "flags.tsv"
    assert run("scan", str(out), "--report", str(report)) == EXIT_OK
    assert report.read_text().splitlines() == ["subject\tregion\tkind\tnode\tseverity"]
    assert (out / "ground_truth.tsv").read_text() == "subject\tregion\tkind\tnode\n"


def test_full_pipeline_synth_scan_edit_scan_stats(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "6", "--seed", "21",
               "--inject", "vein=2,misconnection=2,startingpoint=1",
               "--out-dir", str(out)) == EXIT_OK

    report = tmp_path / "flags.tsv"
    assert run("scan", str(out), "--report", str(report)) == EXIT_FLAGS_FOUND
    flag_rows = {tuple(l.split("\t")[:4]) for l in report.read_text().splitlines()[1:]}
    truth_rows = {tuple(l.split("\t"))
                  for l in (out / "ground_truth.tsv").read_text().splitlines()[1:]}
    assert flag_rows == truth_rows
    assert len(truth_rows) == 5

    fixed = tmp_path / "fixed"
    assert run("apply-edits", str(out), "--script", str(out / "repairs.edits"),
               "--out-dir", str(fixed)) == EXIT_OK
    report2 = tmp_path / "flags2.tsv"
    assert run("scan", str(fixed), "--report", str(report2)) == EXIT_OK

    table = tmp_path / "table.tsv"
    summary = tmp_path / "summary.tsv"
    assert run("stats", str(fixed), "--covariates", str(out / "ages.tsv"),
               "--compare", str(out), "--out", str(table),
               "--flags", str(report), "--summary-out", str(summary)) == EXIT_OK
    lines = table.read_text().splitlines()
    assert lines[1] == "region\tp_value\tp_value_baseline"
    assert [l.split("\t")[0] for l in lines[2:]] == ["Back", "Front", "Right", "Left"]
    assert "flagged_trees\t5" in summary.read_text()


def test_scan_config_file_and_flag_override(tmp_path):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "9",
               "--inject", "vein=1", "--out-dir", str(out)) == EXIT_OK
    report = tmp_path / "r.tsv"
    # vein is injected at 5 * 0.3 mm; a huge epsilon hides it
    cfg = tmp_path / "detect.cfg"
    cfg.write_text("epsilon_mm = 50.0\n")
    assert run("scan", str(out), "--config", str(cfg),
               "--report", str(report)) == EXIT_OK
    # CLI flag overrides the file and the flag reappears
    assert run("scan", str(out), "--config", str(cfg), "--epsilon-mm", "0.3",
               "--report", str(report)) == EXIT_FLAGS_FOUND


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_scan_rejects_a_non_finite_epsilon_flag(tmp_path, capsys, epsilon):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "3", "--seed", "1", "--inject", "vein=2",
               "--out-dir", str(out)) == EXIT_OK
    report = tmp_path / "r.tsv"
    assert run("scan", str(out), "--report", str(report)) == EXIT_FLAGS_FOUND
    report.unlink()
    assert run("scan", str(out), "--epsilon-mm", epsilon,
               "--report", str(report)) == EXIT_DATA_ERROR
    assert "positive and finite" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("effect", ["nan", "inf"])
def test_synth_rejects_a_non_finite_effect(tmp_path, capsys, effect):
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "1", "--effect", effect,
               "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert "covariate effect must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("effect", ["-0.1", "-0.0001"])
def test_synth_rejects_a_negative_effect(tmp_path, capsys, effect):
    # p0 = 0.9 - effect * age passes 1, and an old subject's trees never stop growing
    out = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "1", "--effect", effect,
               "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert "covariate effect must be finite and not negative" in capsys.readouterr().err
    assert not out.exists()


def test_synth_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run("synth", "--subjects", "3", "--seed", "33",
                   "--inject", "vein=1", "--out-dir", str(d)) == EXIT_OK
    fa = sorted(p.name for p in a.iterdir())
    assert fa == sorted(p.name for p in b.iterdir())
    for name in fa:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_duplicate_tree_key_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.dltree").write_text("HEADER s1 B\n(r:1.0)\n")
    (corpus / "b.dltree").write_text("HEADER s1 B\n(q:2.0)\n")
    assert run("scan", str(corpus), "--report",
               str(tmp_path / "r.tsv")) == EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "a.dltree" in err and "b.dltree" in err
    assert not (tmp_path / "r.tsv").exists()


@pytest.mark.parametrize("line, problem", [
    ("epsilon = 0.01", "unknown key 'epsilon'"),
    ("epsilon_mm = abc", "bad value 'abc'"),
    ("epsilon_mm = -1", "bad value '-1'"),
    ("epsilon_mm = nan", "bad value 'nan'"),
    ("misconnection_min_subtree = 2.5", "bad value '2.5'"),
    # int() and float() read more than the file number grammar
    ("epsilon_mm = 1_0", "bad value '1_0' for epsilon_mm: expected a positive and finite float"),
    ("startpoint_min_chain = 0_3", "bad value '0_3'"),
    ("startpoint_thick_mm = 3e0", "bad value '3e0'"),
    ("startpoint_min_chain = +3", "bad value '+3' for startpoint_min_chain: "
                                  "expected a positive and finite int"),
    # a later value must not win quietly
    ("startpoint_min_chain = 5", "key 'startpoint_min_chain' given twice (first on line 2)"),
])
def test_bad_config_line_names_file_and_line(tmp_path, capsys, line, problem):
    corpus = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "9",
               "--out-dir", str(corpus)) == EXIT_OK
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(f"# detector settings\nstartpoint_min_chain = 3\n{line}\n")
    assert run("scan", str(corpus), "--config", str(cfg),
               "--report", str(tmp_path / "r.tsv")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: {problem}")


@pytest.mark.parametrize("epsilon", ["1_0", "3e0", "+0.3", "nan"])
def test_the_epsilon_flag_is_read_as_a_config_value(tmp_path, capsys, epsilon):
    corpus = tmp_path / "corpus"
    assert run("synth", "--subjects", "2", "--seed", "9", "--out-dir", str(corpus)) == EXIT_OK
    report = tmp_path / "r.tsv"
    assert run("scan", str(corpus), "--epsilon-mm", epsilon,
               "--report", str(report)) == EXIT_DATA_ERROR
    # a value from no file has no place
    assert capsys.readouterr().err == (f"error: bad value {epsilon!r} for epsilon_mm: "
                                       "expected a positive and finite float\n")
    assert not report.exists()


@pytest.fixture
def small_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    # stats fits a slope per region, which needs three subjects
    assert run("synth", "--subjects", "3", "--seed", "9", "--out-dir", str(corpus)) == EXIT_OK
    return corpus


def _placed(path: Path, problem: str) -> str:
    """The start of the error line for a problem given as `line N: message`."""
    line, message = re.fullmatch(r"line (\d+): (.*)", problem).groups()
    return f"error: {path}:{line}: {message}"


@pytest.mark.parametrize("row, problem", [
    ("s000\tB\tVein", "line 3: not enough values to unpack (expected 5, got 3)"),
    ("s000\tB\tVien\tn3\t0.5000", "line 3: 'Vien' is not a valid FlagKind"),
    ("s000\tB\tVein\tn3\tlots", "line 3: bad severity 'lots' (expected a number >= 0, or inf)"),
    ("s000\tQ\tVein\tn3\t0.5000", "line 3: unknown region code 'Q'"),
    ("s900\tB\tVein\tn3\t0.5000", "line 3: no tree s900/B in "),
    # scan writes no negative or NaN severity, and float() reads more than
    # the number grammar
    ("s000\tB\tVein\tn3\t-7", "line 3: bad severity '-7'"),
    ("s000\tB\tVein\tn3\tnan", "line 3: bad severity 'nan'"),
    ("s000\tB\tVein\tn3\t2_8", "line 3: bad severity '2_8'"),
    ("s000\tB\tVein\tn3\t 0.5 ", "line 3: bad severity ' 0.5 '"),
    ("s000\tB\tVein\tno_such_node\t0.5000",
     "line 3: no node 'no_such_node' in tree s000/B in "),
])
def test_bad_flags_row_names_file_and_line(tmp_path, capsys, small_corpus, row, problem):
    flags = tmp_path / "flags.tsv"
    flags.write_text(f"subject\tregion\tkind\tnode\tseverity\ns001\tL\tVein\tn2\t0.5000\n{row}\n")
    assert run("stats", str(small_corpus), "--covariates", str(small_corpus / "ages.tsv"),
               "--out", str(tmp_path / "t.tsv"), "--flags", str(flags),
               "--summary-out", str(tmp_path / "s.tsv")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(_placed(flags, problem))
    assert not (tmp_path / "t.tsv").exists()
    assert not (tmp_path / "s.tsv").exists()


def test_a_flags_table_is_read_against_the_corpus_scan_read(tmp_path, capsys):
    # scan reads the --compare corpus, and an EXCLUDE of a subject with no
    # flag leaves the primary corpus 12 of its 16 trees
    corpus, fixed = tmp_path / "corpus", tmp_path / "fixed"
    assert run("synth", "--subjects", "4", "--seed", "3", "--inject", "vein=1",
               "--out-dir", str(corpus)) == EXIT_OK
    flags = tmp_path / "flags.tsv"
    assert run("scan", str(corpus), "--report", str(flags)) == EXIT_FLAGS_FOUND
    script = tmp_path / "fix.edits"
    script.write_text("s003 * EXCLUDE\n")
    assert run("apply-edits", str(corpus), "--script", str(script),
               "--out-dir", str(fixed)) == EXIT_OK
    out, summary = tmp_path / "t.tsv", tmp_path / "s.tsv"
    argv = ["stats", str(fixed), "--covariates", str(corpus / "ages.tsv"), "--compare",
            str(corpus), "--out", str(out), "--flags", str(flags), "--summary-out", str(summary)]
    assert run(*argv) == EXIT_OK
    assert summary.read_text().splitlines()[-1] == "flagged_trees\t1\tof\t16\t6.2%"
    out.unlink()
    summary.unlink()
    # a node that only the primary corpus's tree holds is not in the scanned corpus
    (fixed / "s000_B.dltree").write_text("HEADER s000 B\n(fixedonly:3.8)\n")
    with flags.open("a") as fh:
        fh.write("s000\tB\tVein\tfixedonly\t0.5000\n")
    assert run(*argv) == EXIT_DATA_ERROR
    line = len(flags.read_text().splitlines())
    assert capsys.readouterr().err == (f"error: {flags}:{line}: no node 'fixedonly' in tree "
                                       f"s000/B in {corpus}\n")
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("given, missing", [("--flags", "--summary-out"),
                                            ("--summary-out", "--flags")])
def test_stats_takes_flags_and_summary_out_together(tmp_path, capsys, monkeypatch,
                                                    small_corpus, given, missing):
    monkeypatch.chdir(tmp_path)  # where a default summary file would land
    (tmp_path / "flags.tsv").write_text("subject\tregion\tkind\tnode\tseverity\n")
    path = tmp_path / ("flags.tsv" if given == "--flags" else "s.tsv")
    with pytest.raises(SystemExit) as exc:
        run("stats", str(small_corpus), "--covariates", str(small_corpus / "ages.tsv"),
            "--out", str(tmp_path / "t.tsv"), given, str(path))
    assert exc.value.code == 2
    assert f"stats {given} needs {missing}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "flags.tsv"]


@pytest.mark.parametrize("row, problem", [
    ("s001 40.0", "bad covariate line 's001 40.0'"),
    ("s001\tforty", "bad covariate line 's001\\tforty'"),
    ("s001\tnan", "bad covariate line 's001\\tnan'"),
    ("s000\t41.0", "subject 's000' listed twice"),
    ("s001\t1e200", "bad covariate line 's001\\t1e200'"),
    # float() reads these, the number grammar does not
    ("s001\t2_8", "bad covariate line 's001\\t2_8'"),
    ("s001\t 4_0.5 ", "bad covariate line 's001\\t 4_0.5 '"),
    ("s001\t+40", "bad covariate line 's001\\t+40'"),
    ("s001\t4e1", "bad covariate line 's001\\t4e1'"),
])
def test_bad_covariate_line_names_file_and_line(tmp_path, capsys, small_corpus, row, problem):
    ages = tmp_path / "ages.tsv"
    ages.write_text(f"subject\tage\ns000\t30.0\n{row}\n")
    assert run("stats", str(small_corpus), "--covariates", str(ages),
               "--out", str(tmp_path / "t.tsv")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == f"error: {ages}:3: {problem}\n"


def test_covariates_skip_only_their_own_header(tmp_path):
    ages = tmp_path / "ages.tsv"
    ages.write_text("subjectA\t28.06\nsubjectB\t30.0\n")
    assert _read(ages, _read_covariates) == {"subjectA": 28.06, "subjectB": 30.0}
    ages.write_text("subject\tage\nsubjectA\t28.06\n")
    assert _read(ages, _read_covariates) == {"subjectA": 28.06}
    # a foreign header is a bad row 1
    ages.write_text("subject\tage_years\nsubjectA\t28.06\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(ages))}:1: bad covariate line"):
        _read(ages, _read_covariates)


def test_covariates_read_the_file_number_grammar(tmp_path):
    # \d takes any Unicode decimal digit, in ages as in .vess and .dltree numbers
    ages = tmp_path / "ages.tsv"
    ages.write_text("s000\t-3.25\ns001\t\uff16\uff10\n")
    assert _read(ages, _read_covariates) == {"s000": -3.25, "s001": 60.0}


def test_huge_age_exits_with_the_covariates_file(tmp_path, capsys, small_corpus):
    # every subject has an age, so only the size of one of them can fail
    ages = tmp_path / "ages.tsv"
    rows = (small_corpus / "ages.tsv").read_text().splitlines()
    ages.write_text("\n".join(rows[:-1] + [rows[-1].split("\t")[0] + "\t1e200"]) + "\n")
    assert run("stats", str(small_corpus), "--covariates", str(ages),
               "--out", str(tmp_path / "t.tsv")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"error: {ages}:{len(rows)}: bad covariate line")


def test_stats_error_names_the_corpus_and_region(tmp_path, capsys, small_corpus):
    two = tmp_path / "two"
    assert run("synth", "--subjects", "2", "--seed", "9", "--out-dir", str(two)) == EXIT_OK
    constant = tmp_path / "constant.tsv"
    constant.write_text("subject\tage\ns000\t40.0\ns001\t40.0\ns002\t40.0\n")
    out, summary = tmp_path / "t.tsv", tmp_path / "s.tsv"
    flags = tmp_path / "flags.tsv"
    flags.write_text("subject\tregion\tkind\tnode\tseverity\n")
    for corpus, ages, compare, problem in (
            (two, two / "ages.tsv", None,
             f"error: {two}: region Back: need at least 3 points, got 2"),
            (small_corpus, constant, None,
             f"error: {small_corpus}: region Back: covariate is constant; slope undefined"),
            (small_corpus, small_corpus / "ages.tsv", two,
             f"error: {two}: region Back: need at least 3 points, got 2"),
            # an ages table that lacks a subject of either corpus
            (small_corpus, two / "ages.tsv", None,
             f"error: {two / 'ages.tsv'}: no covariate for subject 's002' of {small_corpus}"),
            (two, two / "ages.tsv", small_corpus,
             f"error: {two / 'ages.tsv'}: no covariate for subject 's002' of {small_corpus}")):
        argv = ["stats", str(corpus), "--covariates", str(ages), "--out", str(out),
                "--flags", str(flags), "--summary-out", str(summary)]
        assert run(*argv, *(["--compare", str(compare)] if compare else [])) == EXIT_DATA_ERROR
        assert capsys.readouterr().err == problem + "\n"
        assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("line, problem", [
    ("s000 B DELETE_LEAF n2", "line 2: node 'n2' is not a leaf"),
    ("s000 B DELETE_SUBTREE n1",
     "line 2: cannot delete the root subtree (exclude the case instead)"),
    ("s000 B TRIM_ROOT zz", "line 2: node 'zz' not in s000/B"),
    ("s900 B DELETE_LEAF n3", "line 2: no tree for s900/B"),
    ("s900 * EXCLUDE", "line 2: no trees for subject 's900'"),
    ("s000 B DELETE_LEAF", "line 2: malformed script line 's000 B DELETE_LEAF'"),
    ("s000 B FROB n3", "line 2: unknown operation 'FROB'"),
])
def test_every_failed_script_line_is_named_by_its_number(tmp_path, capsys, small_corpus,
                                                         line, problem):
    script = tmp_path / "fix.edits"
    script.write_text(f"s001 * EXCLUDE\n{line}\n")  # n1 is s000/B's root, n2 its left child
    assert run("apply-edits", str(small_corpus), "--script", str(script),
               "--out-dir", str(tmp_path / "fixed")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == _placed(script, problem) + "\n"
    assert not (tmp_path / "fixed").exists()


def test_bad_script_region_names_script_and_line(tmp_path, capsys, small_corpus):
    script = tmp_path / "fix.edits"
    script.write_text("# repairs\ns000 Q DELETE_LEAF n3\n")
    assert run("apply-edits", str(small_corpus), "--script", str(script),
               "--out-dir", str(tmp_path / "fixed")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: {script}:2: unknown region code 'Q' (expected B, L, R or F)\n")


@pytest.mark.parametrize("brk", ["\f", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
@pytest.mark.parametrize("reader, text, problem", [
    ("script", "# repairs{brk}# more\ns000 Q DELETE_LEAF n3\n",
     "{path}:2: unknown region code 'Q' (expected B, L, R or F)"),
    ("config", "# detector settings{brk}startpoint_min_chain = 3\nepsilon = 0.01\n",
     "{path}:2: unknown key 'epsilon' (expected one of epsilon_mm, "
     "misconnection_min_subtree, startpoint_thick_mm, startpoint_min_chain)"),
    ("covariates", "subject\tage{brk}s000\t30.0\ns001 40.0\n",
     "{path}:2: bad covariate line 's001 40.0'"),
    ("flags", "subject\tregion\tkind\tnode\tseverity{brk}s001\tL\tVein\tn2\t0.5000\n"
     "s000\tQ\tVein\tn3\t0.5000\n", "{path}:2: unknown region code 'Q' (expected B, L, R or F)"),
    ("dltree", "HEADER s9 B{brk}(r:1.0,\n(a:-1))\n", "{path}:2:4: node 'a' has negative thickness"),
    ("vess", "HEADER g B\nPOINT p1 0 0 0 1{brk}POINT p2 0 0 0 -1\n",
     "{path}:2: point 'p2' has radius -1.0 <= 0"),
], ids=["script", "config", "covariates", "flags", "dltree", "vess"])
def test_text_readers_number_lines_at_line_ends_only(tmp_path, capsys, small_corpus,
                                                     reader, text, problem, brk):
    # a Unicode break inside file line 1 ends a record but not the line
    path = tmp_path / f"{reader}.txt"
    path.write_bytes(text.format(brk=brk).encode("utf-8"))
    out = tmp_path / "out"
    argv = {"script": ("apply-edits", small_corpus, "--script", path, "--out-dir", out),
            "config": ("scan", small_corpus, "--config", path, "--report", out / "r.tsv"),
            "covariates": ("stats", small_corpus, "--covariates", path, "--out", out / "t.tsv"),
            "flags": ("stats", small_corpus, "--covariates", small_corpus / "ages.tsv",
                      "--out", out / "t.tsv", "--flags", path, "--summary-out", out / "s.tsv"),
            "dltree": ("render", path, "--out-dir", out),
            "vess": ("extract", path, "--out-dir", out)}[reader]
    assert run(*map(str, argv)) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == "error: " + problem.format(path=path) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [
    ("scan", "tree"), ("render", "tree"), ("apply-edits", "tree"), ("stats", "tree"),
    ("apply-edits", "script"), ("stats", "covariates"), ("scan", "config"),
    ("extract", "vess"),
])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, small_corpus, command, bad):
    config = tmp_path / "detect.cfg"
    config.write_text("epsilon_mm = 0.3\n")
    vess = tmp_path / "in.vess"
    vess.write_text(MINIMAL_VESS)
    path = {"tree": sorted(small_corpus.glob("*.dltree"))[0],
            "script": small_corpus / "repairs.edits",
            "covariates": small_corpus / "ages.tsv", "config": config, "vess": vess}[bad]
    path.write_bytes(b"# \xff\n" + path.read_bytes())
    out = tmp_path / "out"
    argv = {"scan": ("--report", str(out / "r.tsv"), "--config", str(config)),
            "render": ("--out-dir", str(out)), "extract": ("--out-dir", str(out)),
            "apply-edits": ("--script", str(small_corpus / "repairs.edits"),
                            "--out-dir", str(out)),
            "stats": ("--covariates", str(small_corpus / "ages.tsv"),
                      "--out", str(out / "t.tsv"))}[command]
    first = str(path if command in ("render", "extract") else small_corpus)
    assert run(command, first, *argv) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: {path}:1:3: 'utf-8' codec can't decode byte 0xff: invalid start byte\n")
    assert not out.exists()


def test_a_byte_that_is_not_utf8_is_placed_at_its_line_and_column(tmp_path, capsys,
                                                                 small_corpus):
    # lines end at \r\n and \r, not at \u2028, and a column counts characters
    config = tmp_path / "detect.cfg"
    config.write_bytes("# réglages\r\n# two\r# \u2028x".encode("utf-8") + b"\xe9 \n")
    report = tmp_path / "r.tsv"
    assert run("scan", str(small_corpus), "--config", str(config),
               "--report", str(report)) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: {config}:3:5: 'utf-8' codec can't decode byte 0xe9: invalid continuation byte\n")
    assert not report.exists()


def test_apply_edits_merge_of_huge_thicknesses_reads_back(tmp_path):
    # the mean of two thicknesses near the float maximum once overflowed to inf,
    # and apply-edits wrote "(r:inf)", which no command could read
    huge = "9" * 308
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "s_B.dltree").write_text(f"HEADER s B\n(r:{huge},(a:{huge}),(b:1.0))\n")
    script = tmp_path / "fix.edits"
    script.write_text("s B DELETE_LEAF b\n")
    out = tmp_path / "fixed"
    assert run("apply-edits", str(corpus), "--script", str(script),
               "--out-dir", str(out)) == EXIT_OK
    tree = parse_dltree((out / "s_B.dltree").read_bytes())
    assert tree.ids == ("r",) and tree.thickness[0] == float(huge)


def test_apply_edits_rejects_a_subject_that_leaves_the_out_dir(tmp_path, capsys):
    # the output is named <subject>_<region>.dltree, so this subject once put
    # escaped_B.dltree two directories above --out-dir, with exit 0
    corpus = tmp_path / "a" / "b" / "corpus"
    corpus.mkdir(parents=True)
    tree = corpus / "t.dltree"
    tree.write_text("HEADER ../../escaped B\n(n1:2.0,(n2:1.0),(n3:1.0))\n")
    script = tmp_path / "fix.edits"
    script.write_text("# nothing to repair\n")
    out = tmp_path / "a" / "b" / "fixed"
    assert run("apply-edits", str(corpus), "--script", str(script),
               "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(
        f"error: {tree}:1:1: bad subject id '../../escaped'")
    assert not list(tmp_path.rglob("*escaped*")) and not out.exists()


def test_apply_edits_rejects_a_subject_its_script_lines_cannot_name(tmp_path, capsys):
    # an edit line for subject #x reads as a comment, so the tree was once
    # written back unchanged, with exit 0 and no message
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    tree = corpus / "x_B.dltree"
    tree.write_text("HEADER #x B\n(n1:2.0,(n2:3.0),(n3:1.0))\n")
    script = tmp_path / "fix.edits"
    script.write_text("#x B DELETE_LEAF n2\n")
    out = tmp_path / "fixed"
    assert run("apply-edits", str(corpus), "--script", str(script),
               "--out-dir", str(out)) == EXIT_DATA_ERROR
    assert capsys.readouterr().err.startswith(f"error: {tree}:1:1: bad subject id '#x'")
    assert not out.exists()


_ALNUM = "abcXYZ0189"


def grammar_edges(punctuation: str, *long: int):
    """Names at the edges of `[A-Za-z0-9][A-Za-z0-9<punctuation>]*`: one
    character, each length in `long`, digits only, and each punctuation
    character in every non-first position."""
    first = st.sampled_from(_ALNUM)
    return st.one_of(
        first,
        *(st.builds(str.__add__, first, st.text(_ALNUM + punctuation, min_size=n - 1,
                                                 max_size=n - 1)) for n in long),
        st.text("0123456789", min_size=1, max_size=12),
        st.builds(lambda f, p, k: f + "x" * (k - 1) + p + "y" * (5 - k),
                  first, st.sampled_from(punctuation), st.integers(1, 5)),
        st.builds(lambda f, p: f + p * 5, first, st.sampled_from(punctuation)),
    )


@settings(max_examples=60, deadline=None)
@given(subject=grammar_edges("._+~-", 246, 300),
       node_ids=st.lists(grammar_edges(".+~-", 300), min_size=12, max_size=12, unique=True),
       seed=st.integers(0, 10**6), region=st.sampled_from(list(Region)))
def test_names_at_the_grammar_edges_pass_every_command(subject, node_ids, seed, region):
    rng = random.Random(seed)
    shape = random_binary_tree(rng, max_nodes=len(node_ids))
    tree = BinaryTree(subject, region, ids=tuple(node_ids[:shape.node_count]),
                      thickness=shape.thickness, size=shape.size)
    key = (subject, region.value)
    # a line for every node, each op that applies to it
    script = [ScriptLine(subject, region, TrimRoot(node_id)) for node_id in tree.ids]
    script += [ScriptLine(subject, region, DeleteSubtree(node_id)) for node_id in tree.ids[1:]]
    script += [ScriptLine(subject, region, DeleteLeaf(node_id))
               for i, node_id in enumerate(tree.ids) if i and tree.size[i] == 1]
    back = parse_script(format_script(script))
    assert [(l.subject_id, l.region, l.op) for l in back] == [
        (l.subject_id, l.region, l.op) for l in script]
    for line in back:
        apply_script({key: tree}, [line])
    flags = [FlagRecord(subject, region, kind, node_id, 0.5)
             for kind, node_id in zip(list(FlagKind) * len(tree.ids), tree.ids)]
    assert flags_from_tsv(flags_to_tsv(flags)) == flags
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ages.tsv").write_text(f"subject\tage\n{subject}\t61.5000\n")
        assert _read(tmp / "ages.tsv", _read_covariates) == {subject: 61.5}
        name = f"{subject}_{region.value}.dltree"
        vess, corpus = tmp / "in.vess", tmp / "corpus"
        vess.write_bytes(serialize_vess(random_vess_graph(rng, max_segments=8,
                                                          subject_id=subject, region=region)))
        corpus.mkdir()
        (corpus / "t.dltree").write_bytes(serialize_dltree(tree))
        (tmp / "fix.edits").write_text(format_script(back[-1:]))
        inputs = {Path("ages.tsv"), Path("in.vess"), Path("corpus/t.dltree"),
                  Path("fix.edits")}
        commands = (("extract", str(vess), "--out-dir", str(tmp / "trees")),
                    ("apply-edits", str(corpus), "--script", str(tmp / "fix.edits"),
                     "--out-dir", str(tmp / "fixed")))
        if len(name) > 255:  # past the file-name limit of common file systems
            for argv in commands:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    assert run(*argv) == EXIT_DATA_ERROR
                assert f"subject {subject!r} is too long to name an output file" in (
                    err.getvalue())
                assert "255-byte file-name limit" in err.getvalue()
            assert {p.relative_to(tmp) for p in tmp.rglob("*") if p.is_file()} == inputs
            return
        for argv in commands:
            assert run(*argv) == EXIT_OK
        written = {p.relative_to(tmp) for p in tmp.rglob("*") if p.is_file()}
        assert written == inputs | {Path("trees") / name, Path("fixed") / name}


def test_a_subject_too_long_for_a_file_name_writes_nothing(tmp_path, capsys):
    # a 247-character subject makes a 256-byte <subject>_B.dltree; extract and
    # apply-edits once wrote the outputs before it, then stopped at errno 36
    long = "a" * 247
    short_vess, long_vess = tmp_path / "a.vess", tmp_path / "b.vess"
    short_vess.write_text(MINIMAL_VESS)
    long_vess.write_text(MINIMAL_VESS.replace("sub1", long))
    assert run("extract", str(short_vess), str(long_vess),
               "--out-dir", str(tmp_path / "trees")) == EXIT_DATA_ERROR
    assert capsys.readouterr().err == (
        f"error: {long_vess}: subject {long!r} is too long to name an output file: "
        f"'{long}_B.dltree' passes the 255-byte file-name limit\n")
    assert not (tmp_path / "trees").exists()

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.dltree").write_text("HEADER sub1 B\n(n1:2.0,(n2:1.0),(n3:1.0))\n")
    (corpus / "b.dltree").write_text(f"HEADER {long} B\n(n1:2.0,(n2:1.0),(n3:1.0))\n")
    script = tmp_path / "fix.edits"
    script.write_text("sub1 B DELETE_LEAF n2\n")
    assert run("apply-edits", str(corpus), "--script", str(script),
               "--out-dir", str(tmp_path / "fixed")) == EXIT_DATA_ERROR
    assert "passes the 255-byte file-name limit" in capsys.readouterr().err
    assert not (tmp_path / "fixed").exists()
    # one character shorter fits
    long_vess.write_text(MINIMAL_VESS.replace("sub1", long[1:]))
    assert run("extract", str(long_vess), "--out-dir", str(tmp_path / "trees")) == EXIT_OK
    assert [p.name for p in (tmp_path / "trees").iterdir()] == [f"{long[1:]}_B.dltree"]


def test_outputs_get_the_mode_a_plain_open_gives(tmp_path):
    corpus, fixed, figs = tmp_path / "corpus", tmp_path / "fixed", tmp_path / "figs"
    old = os.umask(0o027)
    try:
        assert run("synth", "--subjects", "2", "--seed", "3", "--inject", "vein=1",
                   "--out-dir", str(corpus)) == EXIT_OK
        assert run("apply-edits", str(corpus), "--script", str(corpus / "repairs.edits"),
                   "--out-dir", str(fixed)) == EXIT_OK
        assert run("render", *map(str, sorted(fixed.glob("*.dltree"))),
                   "--out-dir", str(figs)) == EXIT_OK
    finally:
        os.umask(old)
    written = {d: sorted(p.name for p in d.iterdir()) for d in (corpus, fixed, figs)}
    assert len(written[corpus]) == 8 + 3 and len(written[fixed]) == len(written[figs]) == 8
    for d, names in written.items():
        for name in names:
            assert stat.S_IMODE((d / name).stat().st_mode) == 0o640, d / name


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three random edits: drop, insert or repeat bytes, cut the tail,
    or insert a run of 300-400 digits, which reads as a number near or past
    float range."""
    alphabet = b"()_,:.-e#*=\t\n 0123456789nsBLRFQ\xff"
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(5)
        if op == 0:
            data = data[:i] + data[i + rng.randint(1, 4):]
        elif op == 1:
            data = data[:i] + bytes([rng.choice(alphabet)]) + data[i:]
        elif op == 2:
            j = rng.randint(i, min(i + 40, len(data)))
            data = data[:i] + data[i:j] * 2 + data[j:]
        elif op == 3:
            data = data[:i]
        else:
            data = data[:i] + b"9" * rng.randint(300, 400) + data[i:]
    return data


def test_cli_survives_mutated_inputs(tmp_path):
    """Every command exits 0, 1 or 3 on mutated input files, never with a traceback."""
    rng = random.Random(20240607)
    corpus = tmp_path / "corpus"
    assert run("synth", "--subjects", "3", "--seed", "4", "--inject",
               "vein=1,misconnection=1,startingpoint=1", "--out-dir", str(corpus)) == EXIT_OK
    flags, config = tmp_path / "flags.tsv", tmp_path / "detect.cfg"
    assert run("scan", str(corpus), "--report", str(flags)) == EXIT_FLAGS_FOUND
    config.write_text("epsilon_mm = 0.3\nmisconnection_min_subtree = 3\n")
    vess = tmp_path / "a.vess"
    vess.write_bytes(serialize_vess(random_vess_graph(rng, max_segments=12)))
    trees = sorted(corpus.glob("*.dltree"))
    others = [corpus / "repairs.edits", corpus / "ages.tsv", flags, config, vess]
    out = tmp_path / "out"

    def commands():
        yield "scan", str(corpus), "--report", str(out / "f.tsv"), "--config", str(config)
        yield ("apply-edits", str(corpus), "--script", str(corpus / "repairs.edits"),
               "--out-dir", str(out / "fixed"))
        yield "render", *map(str, trees[:2]), "--out-dir", str(out / "svg")
        yield ("stats", str(corpus), "--covariates", str(corpus / "ages.tsv"),
               "--out", str(out / "t.tsv"), "--flags", str(flags),
               "--summary-out", str(out / "s.tsv"))
        yield "extract", str(vess), "--out-dir", str(out / "trees")

    for _ in range(80):
        target = rng.choice([rng.choice(trees), *others])
        original = target.read_bytes()
        target.write_bytes(_mutate(rng, original))
        shutil.rmtree(out, ignore_errors=True)
        try:
            for argv in commands():
                assert run(*argv) in (EXIT_OK, EXIT_DATA_ERROR, EXIT_FLAGS_FOUND), argv
        finally:
            target.write_bytes(original)
        # every tree that extract or apply-edits wrote reads back
        for written in [*out.glob("fixed/*.dltree"), *out.glob("trees/*.dltree")]:
            parse_dltree(written.read_bytes())


# what xml.sax.saxutils and statistics would pull in; pathlib loads
# urllib.parse itself on 3.10-3.12, so that one is allowed
_NOT_IMPORTED = ("xml", "urllib.request", "http", "email", "ssl", "socket",
                 "statistics", "decimal", "fractions")


def test_the_cli_imports_only_what_it_runs():
    # -I ignores PYTHONPATH, so the child puts src on sys.path itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import dlview.cli; "
            f"print(sorted(set({_NOT_IMPORTED!r}) & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
