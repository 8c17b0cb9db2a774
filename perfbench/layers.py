"""Per-layer metrics derived from the spans of the traced passes."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, loglog_slope, self_seconds

# CLI subcommands, by the chain step label that runs them ("rescan" is a second scan)
COMMANDS = ("synth", "scan", "apply_edits", "render", "stats", "extract")
PARSE_STEPS = ("scan", "apply_edits", "render", "stats")

# Which end-to-end metric each group should move, and where:
#   cli.*.self_s, cli.files/bytes_written -> pipeline_s, mostly on corpus
#   ingest.parse_dltree_*, parses_per_tree -> scan_s, review_ms_*: corpus, bigtree
#   ingest.serialize_dltree_s, core.tree_build_* -> pipeline_s: corpus, bigtree
#   ingest.parse_vess_s, core.validate/children_of, extract.* -> pipeline_s: vessels
#   detect.*_s and slopes -> scan_s, review_ms_p95: bigtree combs
#   layout.*, render.* -> review_ms_p50, pipeline_s: bigtree; render on corpus
#   edit.* -> pipeline_s: bigtree (many lines on one tree) against corpus
#   synth.*, stats.* -> pipeline_s: corpus only
#   detect.flags/precision/recall -> ok_rate (the output checks)
PER_LAYER = (
    *((f"cli.{c}.self_s", "s", "lower") for c in COMMANDS),
    *((f"cli.{c}.wall_s", "s", "lower") for c in COMMANDS),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("ingest.parse_dltree_s", "s", "lower"),
    ("ingest.parse_dltree_calls", "count", "lower"),
    *((f"ingest.parses_per_tree.{c}", "ratio", "lower") for c in PARSE_STEPS),
    ("ingest.serialize_dltree_s", "s", "lower"),
    ("ingest.parse_vess_s", "s", "lower"),
    ("ingest.parse_dltree_slope_bushy", "1", "lower"),
    ("ingest.parse_dltree_slope_comb", "1", "lower"),
    ("ingest.parse_vess_slope", "1", "lower"),
    ("core.tree_build_s", "s", "lower"),
    ("core.tree_build_calls", "count", "lower"),
    ("core.validate_calls_per_graph", "ratio", "lower"),
    ("core.children_of_calls_per_segment", "ratio", "lower"),
    ("extract.extract_s", "s", "lower"),
    ("extract.slope", "1", "lower"),
    ("detect.misconnection_s", "s", "lower"),
    ("detect.starting_point_s", "s", "lower"),
    ("detect.vein_s", "s", "lower"),
    ("detect.misconnection_slope_bushy", "1", "lower"),
    ("detect.misconnection_slope_comb", "1", "lower"),
    ("detect.flags", "count", "lower"),
    ("detect.precision", "ratio", "higher"),
    ("detect.recall", "ratio", "higher"),
    ("layout.build_layout_s", "s", "lower"),
    ("layout.slope_bushy", "1", "lower"),
    ("layout.slope_comb", "1", "lower"),
    ("render.render_svg_s", "s", "lower"),
    ("render.svg_bytes", "bytes", "lower"),
    ("render.slope_bushy", "1", "lower"),
    ("render.slope_comb", "1", "lower"),
    ("edit.apply_script_s", "s", "lower"),
    ("edit.script_lines", "count", "lower"),
    ("edit.nodes_removed", "count", "lower"),
    ("edit.s_per_line", "s", "lower"),
    ("edit.tree_builds_per_line", "ratio", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.inject_s", "s", "lower"),
    ("synth.inject_attempts", "count", "lower"),
    ("synth.inject_accepted", "count", "higher"),
    ("stats.region_age_s", "s", "lower"),
    ("stats.summarize_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# slope name -> (span name, subject-id prefix of the ladder it is fitted on)
SLOPES = {
    "ingest.parse_dltree_slope_bushy": ("ingest.parse_dltree", "b"),
    "ingest.parse_dltree_slope_comb": ("ingest.parse_dltree", "c"),
    "ingest.parse_vess_slope": ("ingest.parse_vess", "v"),
    "extract.slope": ("extract.extract_binary_tree", "v"),
    "detect.misconnection_slope_bushy": ("detect.detect_misconnection", "b"),
    "detect.misconnection_slope_comb": ("detect.detect_misconnection", "c"),
    "layout.slope_bushy": ("layout.build_layout", "b"),
    "layout.slope_comb": ("layout.build_layout", "c"),
    "render.slope_bushy": ("render.render_svg", "b"),
    "render.slope_comb": ("render.render_svg", "c"),
}


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def _under(span: Span, ancestor: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == ancestor:
            return True
        parent = by_id.get(parent.parent)
    return False


def pass_metrics(spans: list[Span], facts: dict) -> dict[str, float]:
    """Metrics of one traced pass; the review loop's spans are left out."""
    chain = [s for s in spans if s.step != "review"]
    by_id = {s.sid: s for s in chain}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in chain:
        children[s.parent].append(s)
        named[s.name].append(s)

    def seconds(name):
        return sum(s.seconds for s in named[name])

    def calls(name):
        return len(named[name])

    m = {}
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = sum(self_seconds(s, children[s.sid])
                                   for s in named[f"cli.cmd_{c}"] if s.step == c)
    m["cli.files_written"] = facts.get("files_written", 0)
    m["cli.bytes_written"] = facts.get("bytes_written", 0)
    m["ingest.parse_dltree_s"] = seconds("ingest.parse_dltree")
    m["ingest.parse_dltree_calls"] = calls("ingest.parse_dltree")
    for c in PARSE_STEPS:
        parses = sum(1 for s in named["ingest.parse_dltree"] if s.step == c)
        m[f"ingest.parses_per_tree.{c}"] = _ratio(parses, facts.get("step_inputs", {}).get(c, 0))
    m["ingest.serialize_dltree_s"] = seconds("ingest.serialize_dltree")
    m["ingest.parse_vess_s"] = seconds("ingest.parse_vess")
    m["core.tree_build_s"] = seconds("core.BinaryTree.build")
    m["core.tree_build_calls"] = calls("core.BinaryTree.build")
    m["core.validate_calls_per_graph"] = _ratio(calls("core.RawVesselGraph.validate"),
                                                calls("ingest.parse_vess"))
    segments = sum(s.size or 0 for s in named["extract.extract_binary_tree"])
    m["core.children_of_calls_per_segment"] = _ratio(
        calls("core.RawVesselGraph.children_of"), segments)
    m["extract.extract_s"] = seconds("extract.extract_binary_tree")
    m["detect.misconnection_s"] = seconds("detect.detect_misconnection")
    m["detect.starting_point_s"] = seconds("detect.detect_starting_point")
    m["detect.vein_s"] = seconds("detect.detect_vein")
    m["detect.flags"] = facts.get("flags", 0)
    # with nothing injected and nothing flagged there is nothing to miss
    m["detect.precision"] = _ratio(facts.get("flag_hits", 0), m["detect.flags"], empty=1.0)
    m["detect.recall"] = _ratio(facts.get("recalled", 0), facts.get("injected", 0), empty=1.0)
    m["layout.build_layout_s"] = seconds("layout.build_layout")
    m["render.render_svg_s"] = seconds("render.render_svg")
    m["render.svg_bytes"] = facts.get("svg_bytes", 0)
    m["edit.apply_script_s"] = seconds("edit.apply_script")
    lines = facts.get("script_lines", 0)
    m["edit.script_lines"] = lines
    m["edit.nodes_removed"] = facts.get("nodes_removed", 0)
    m["edit.s_per_line"] = _ratio(m["edit.apply_script_s"], lines)
    builds = sum(1 for s in named["core.BinaryTree.build"]
                 if _under(s, "edit.apply_script", by_id))
    m["edit.tree_builds_per_line"] = _ratio(builds, lines)
    m["synth.generate_s"] = seconds("synth.generate_corpus")
    m["synth.inject_s"] = seconds("synth.inject_anomaly")
    m["synth.inject_attempts"] = calls("synth.inject_anomaly")
    m["synth.inject_accepted"] = sum(1 for s in named["synth.inject_anomaly"] if s.ok)
    m["stats.region_age_s"] = seconds("stats.region_age_analysis")
    m["stats.summarize_s"] = seconds("stats.summarize_flags")
    return m


def slopes(spans: list[Span]) -> dict[str, float]:
    """Log-log slope of per-call time on size over a ladder's trees.

    Each tree contributes the median of its calls across all traced passes,
    chain and review loop alike.
    """
    out = {}
    for metric, (name, prefix) in SLOPES.items():
        samples = defaultdict(list)
        for s in spans:
            if s.name == name and s.key and s.key.startswith(prefix) and s.size:
                samples[(s.key, s.size)].append(s.seconds)
        out[metric] = loglog_slope((size, statistics.median(v))
                                   for (_, size), v in samples.items())
    return out


def layer_metrics(spans: list[Span], traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced passes, plus slopes, untraced walls and overhead."""
    per_pass = [pass_metrics([s for s in spans if s.pass_id == rec["pass_id"]],
                             rec["facts"]) for rec in traced]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out.update(slopes(spans))
    for c in COMMANDS:
        walls = [rec["times"][c] for rec in untraced if c in rec["times"]]
        out[f"cli.{c}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["trace.overhead_ratio"] = (statistics.median(r["pipeline"] for r in traced)
                                   / statistics.median(r["pipeline"] for r in untraced))
    return out
