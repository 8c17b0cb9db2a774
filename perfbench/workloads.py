"""The three workloads: inputs, CLI command chain, and output checks.

A workload's `setup` writes its inputs and returns a JSON-able spec.  `chain`
turns the spec into CLI steps for one pass, `check` verifies that pass's
outputs against ground truth, and `review_files` lists the trees a reviewer
opens one by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from dlview import cli, edit, ingest, synth
from dlview.core import Region

JOBS = "2"  # the corpus workload's --jobs, equal to nproc on the reference machine


@dataclass(frozen=True)
class Step:
    label: str                      # chain step; "rescan" is a second scan
    argv: Callable[[], list[str]]   # built just before the step runs
    expect_rc: int


def count_nodes(path: Path) -> int:
    """Nodes in a .dltree file, counted without the program's parser."""
    return path.read_bytes().count(b"(")


def tree_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.dltree"))


def report_rows(path: Path) -> list[tuple[str, ...]]:
    """(subject, region, kind, node) rows of a flags.tsv or ground_truth.tsv."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return sorted(tuple(line.split("\t")[:4]) for line in lines if line)


def flag_facts(flags: list[tuple[str, ...]], truth: list[tuple[str, ...]]) -> dict:
    truth_set = set(truth)
    hits = sum(1 for f in flags if f in truth_set)
    return {"flags": len(flags), "flag_hits": hits, "injected": len(truth),
            "recalled": len(truth_set & set(flags))}


def write_files(directory: Path, files: dict[str, bytes]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


# ---------------------------------------------------------------------------


class Corpus:
    """The README flow on ~800 small synth trees."""

    name = "corpus"
    review_rounds = 1  # ~800 trees give enough review samples in one round
    subjects = 200
    effect = 0.005
    inject = "vein=30,misconnection=20,startingpoint=10"
    warmup_subjects = 8
    seed_candidates = 4
    typical_nodes = 12600  # median clean-corpus node count over synth seeds 1-15

    def corpus_nodes(self, synth_seed: int) -> int:
        entries = synth.generate_corpus(self.subjects, self.effect, synth_seed)
        return sum(e.tree.node_count for e in entries)

    def setup(self, seed: int, inputs: Path) -> dict:
        # Corpus size varies by ~7 % between synth seeds; of a few candidate
        # seeds, keep the one whose corpus is closest to the typical size.
        rng = random.Random(seed)
        candidates = [rng.randrange(2**31) for _ in range(self.seed_candidates)]
        synth_seed = min(candidates, key=lambda s: abs(self.corpus_nodes(s) - self.typical_nodes))
        spec = {"synth_seed": synth_seed, "subjects": self.subjects, "inject": self.inject}
        # warm-up: one small pass of the same chain, so first-call costs
        # (imports of lazily loaded code, directory creation) are paid here
        warm = {"synth_seed": spec["synth_seed"] + 1, "subjects": self.warmup_subjects,
                "inject": "vein=1,misconnection=1,startingpoint=1"}
        for step in self.chain(warm, inputs / "warmup"):
            cli.main(step.argv())
        return spec

    def chain(self, spec: dict, out: Path) -> list[Step]:
        corpus, fixed = out / "corpus", out / "fixed"
        return [
            Step("synth", lambda: ["synth", "--subjects", str(spec["subjects"]),
                                   "--seed", str(spec["synth_seed"]), "--effect", str(self.effect),
                                   "--inject", spec["inject"], "--out-dir", str(corpus)], 0),
            Step("scan", lambda: ["scan", str(corpus), "--report", str(out / "flags.tsv"),
                                  "--jobs", JOBS], cli.EXIT_FLAGS_FOUND),
            Step("apply_edits", lambda: ["apply-edits", str(corpus), "--script",
                                         str(corpus / "repairs.edits"),
                                         "--out-dir", str(fixed)], 0),
            Step("rescan", lambda: ["scan", str(fixed), "--report", str(out / "reflags.tsv"),
                                    "--jobs", JOBS], 0),
            Step("stats", lambda: ["stats", str(fixed), "--covariates", str(corpus / "ages.tsv"),
                                   "--compare", str(corpus), "--out", str(out / "table.tsv"),
                                   "--flags", str(out / "flags.tsv"),
                                   "--summary-out", str(out / "summary.tsv")], 0),
            Step("render", lambda: ["render", *map(str, tree_files(corpus)),
                                    "--out-dir", str(out / "svg"), "--jobs", JOBS], 0),
        ]

    def check(self, spec: dict, out: Path):
        corpus = out / "corpus"
        truth = report_rows(corpus / "ground_truth.tsv")
        flags = report_rows(out / "flags.tsv")
        n_trees = len(tree_files(corpus))
        checks = [
            ("flags_match_ground_truth", flags == truth and len(truth) > 0),
            ("rescan_clean", report_rows(out / "reflags.tsv") == []),
            ("one_svg_per_tree", len(list((out / "svg").glob("*.svg"))) == n_trees),
            ("stats_tables_written", (out / "table.tsv").is_file()
             and (out / "summary.tsv").is_file()),
        ]
        facts = flag_facts(flags, truth)
        facts.update(edit_facts(corpus, out / "fixed", corpus / "repairs.edits"))
        facts["step_inputs"] = {"scan": n_trees, "apply_edits": n_trees,
                                "rescan": len(tree_files(out / "fixed")),
                                "stats": n_trees + len(tree_files(out / "fixed")),
                                "render": n_trees}
        return checks, facts

    def review_files(self, spec: dict, out: Path) -> list[Path]:
        return tree_files(out / "corpus")


def edit_facts(before: Path, after: Path, script: Path) -> dict:
    lines = [l for l in script.read_text(encoding="utf-8").splitlines()
             if l.strip() and not l.startswith("#")]
    removed = (sum(count_nodes(p) for p in tree_files(before))
               - sum(count_nodes(p) for p in tree_files(after)))
    return {"script_lines": len(lines), "nodes_removed": removed}


# ---------------------------------------------------------------------------


class BigTree:
    """A bushy size ladder (0.6k-8k nodes) and right combs, one anomaly each."""

    name = "bigtree"
    review_rounds = 3  # few trees: review each several times a pass

    def setup(self, seed: int, inputs: Path) -> dict:
        trees, truth, script = gen.bigtree_inputs(seed)
        write_files(inputs / "trees",
                    {f"{t.subject_id}_{t.region.value}.dltree": ingest.serialize_dltree(t)
                     for t in trees})
        write_files(inputs, {
            "repairs.edits": "".join(l + "\n" for l in script).encode(),
            "truth.tsv": ("subject\tregion\tkind\tnode\n"
                          + "".join("\t".join(r) + "\n" for r in truth)).encode(),
        })
        return {"trees": str(inputs / "trees"), "script": str(inputs / "repairs.edits"),
                "truth": str(inputs / "truth.tsv")}

    def chain(self, spec: dict, out: Path) -> list[Step]:
        trees, fixed = spec["trees"], out / "fixed"
        return [
            Step("scan", lambda: ["scan", trees, "--report", str(out / "flags.tsv"),
                                  "--jobs", "1"], cli.EXIT_FLAGS_FOUND),
            Step("apply_edits", lambda: ["apply-edits", trees, "--script", spec["script"],
                                         "--out-dir", str(fixed)], 0),
            Step("rescan", lambda: ["scan", str(fixed), "--report", str(out / "reflags.tsv"),
                                    "--jobs", "1"], 0),
            Step("render", lambda: ["render", *map(str, tree_files(Path(trees))),
                                    "--out-dir", str(out / "svg"), "--jobs", "1"], 0),
        ]

    def check(self, spec: dict, out: Path):
        truth = report_rows(Path(spec["truth"]))
        flags = report_rows(out / "flags.tsv")
        n_trees = len(tree_files(Path(spec["trees"])))
        checks = [
            # each injected locus flagged exactly once, nothing else flagged
            ("loci_flagged_once", flags == truth),
            ("repaired_trees_clean", report_rows(out / "reflags.tsv") == []),
            ("one_svg_per_tree", len(list((out / "svg").glob("*.svg"))) == n_trees),
        ]
        facts = flag_facts(flags, truth)
        facts.update(edit_facts(Path(spec["trees"]), out / "fixed", Path(spec["script"])))
        facts["step_inputs"] = {"scan": n_trees, "apply_edits": n_trees,
                                "rescan": n_trees, "render": n_trees}
        return checks, facts

    def review_files(self, spec: dict, out: Path) -> list[Path]:
        return tree_files(Path(spec["trees"]))


# ---------------------------------------------------------------------------


class Vessels:
    """.vess graphs on a 500-4000 segment ladder, some with two roots."""

    name = "vessels"
    review_rounds = 3

    def setup(self, seed: int, inputs: Path) -> dict:
        graphs = gen.vessels_inputs(seed)
        write_files(inputs / "vess", {f"{stem}.vess": text.encode() for stem, text, _ in graphs})
        return {"vess": [str(inputs / "vess" / f"{stem}.vess") for stem, _, _ in graphs],
                "expected_nodes": {stem: n for stem, _, n in graphs}}

    def chain(self, spec: dict, out: Path) -> list[Step]:
        # One extract per file, not one for all: a single 2.7 s command gave
        # the speed gauge no sample inside it, and pipeline_s spread by 19 %.
        trees = out / "trees"
        return [
            *(Step("extract", lambda vess=vess: ["extract", vess, "--out-dir", str(trees),
                                                 "--jobs", "1"], 0)
              for vess in spec["vess"]),
            Step("scan", lambda: ["scan", str(trees), "--report", str(out / "flags.tsv")], 0),
        ]

    def check(self, spec: dict, out: Path):
        trees = out / "trees"
        expected = spec["expected_nodes"]
        got = {p.stem: count_nodes(p) for p in tree_files(trees)}
        checks = [
            ("node_counts_match_trunk_counter", got == expected),
            ("extracted_trees_clean", report_rows(out / "flags.tsv") == []),
        ]
        facts = flag_facts(report_rows(out / "flags.tsv"), [])
        facts["step_inputs"] = {"scan": len(got)}
        return checks, facts

    def review_files(self, spec: dict, out: Path) -> list[Path]:
        return tree_files(out / "trees")


WORKLOADS = {w.name: w for w in (Corpus(), BigTree(), Vessels())}


# ---------------------------------------------------------------------------
# depth probe


def depth_probe() -> dict[str, bool]:
    """Run each stage once on a chain deeper than the recursion limit.

    A stage passes when it returns the right answer; an exception, including
    RecursionError, fails it.  The probe is never timed.
    """
    from dlview import detect, layout, render

    depth = gen.PROBE_DEPTH
    tree, text, ref = gen.probe_chain(depth)
    cut = f"n{depth // 2}"
    script = [edit.ScriptLine("probe", Region.BACK, edit.DeleteSubtree(cut))]
    stages = {
        "parse": lambda: ingest.parse_dltree(text).node_count == depth,
        "serialize": lambda: ingest.serialize_dltree(tree) == text.encode(),
        "scan": lambda: detect.scan_tree(tree) == [],
        "layout": lambda: [p.y for p in layout.build_layout(tree).placements]
                          == [p.y for p in ref.placements],
        "render": lambda: render.render_svg(ref).count(b"<circle") == depth,
        "edit": lambda: edit.apply_script({("probe", "B"): tree}, script)[
            ("probe", "B")].node_count == depth // 2,
    }
    results = {}
    for name, stage in stages.items():
        try:
            results[name] = bool(stage())
        except Exception:
            results[name] = False
    return results
