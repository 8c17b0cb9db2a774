"""Vessel component-tree extraction, Descendant-Level visualization,
discrepancy flagging, correction edits and corpus statistics."""

from .core import (
    BinaryNode,
    BinaryTree,
    CorpusEntry,
    RawVesselGraph,
    Region,
)
from .detect import DetectorConfig, FlagKind, FlagRecord, scan_tree
from .extract import extract_binary_tree
from .ingest import parse_dltree, parse_vess, serialize_dltree, serialize_vess
from .layout import DlLayout, build_layout, color_bin
from .render import RenderOptions, render_svg
from .stats import RegressionResult, region_age_analysis, slope_p_value, summarize_flags
from .synth import GenParams, generate_corpus, generate_tree, inject_anomaly

__version__ = "0.1.0"
