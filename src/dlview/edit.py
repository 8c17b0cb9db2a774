"""Correction edits applied to component trees via replayable scripts.

Supported operations: delete a (mis-connected) subtree, trim the root chain
to a new cutoff node, delete a (vein) leaf, or exclude a whole case.  When a
deletion leaves a node with a single child, the two trunks merge into one
node carrying the mean of their thicknesses.

Script line format (one operation per line, `#` comments):
    <subject> <region> DELETE_SUBTREE <node>
    <subject> <region> TRIM_ROOT <node>
    <subject> <region> DELETE_LEAF <node>
    <subject> * EXCLUDE
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import BinaryTree, Region, UnknownNodeError
from .ingest import _lines


@dataclass(frozen=True)
class DeleteSubtree:
    node_id: str


@dataclass(frozen=True)
class TrimRoot:
    node_id: str


@dataclass(frozen=True)
class DeleteLeaf:
    node_id: str


@dataclass(frozen=True)
class ExcludeCase:
    pass


Operation = Union[DeleteSubtree, TrimRoot, DeleteLeaf, ExcludeCase]


@dataclass(frozen=True)
class ScriptLine:
    subject_id: str
    region: Optional[Region]  # None for subject-wide EXCLUDE
    op: Operation
    lineno: int = 0


class EditScriptError(ValueError):
    pass


def delete_subtree(tree: BinaryTree, node_id: str) -> BinaryTree:
    """Remove the node's subtree; only the sizes along the parent's path change.

    If the node was an only child, its parent becomes a leaf.  Otherwise the
    parent merges with the surviving child (mean thickness), except that a
    phantom root is replaced by the surviving vessel.
    """
    i = tree.position(node_id)
    if i == 0:
        raise EditScriptError("cannot delete the root subtree (exclude the case instead)")
    p = tree.ancestors(i)[-1]
    kids = tree.children(p)
    if len(kids) == 1:
        return tree.splice(i, (), (), ())  # the parent is left a leaf
    survivor = kids[1] if kids[0] == i else kids[0]
    if tree.thickness[p] is None:
        return tree.subtree(survivor)  # phantom root no longer joins two vessels
    end = survivor + tree.size[survivor]
    # halving first gives the float (a + b) / 2 gives for any normal result,
    # and cannot overflow to inf when both are near the float maximum
    merged_t = tree.thickness[p] / 2.0 + tree.thickness[survivor] / 2.0
    return tree.splice(p, (tree.ids[p],) + tree.ids[survivor + 1:end],
                       (merged_t,) + tree.thickness[survivor + 1:end],
                       tree.size[survivor:end])


def delete_leaf(tree: BinaryTree, node_id: str) -> BinaryTree:
    if tree.size[tree.position(node_id)] != 1:
        raise EditScriptError(f"node {node_id!r} is not a leaf")
    return delete_subtree(tree, node_id)


def trim_root(tree: BinaryTree, new_root_node_id: str) -> BinaryTree:
    return tree.subtree(tree.position(new_root_node_id))


# the script verb and the tree edit of each operation on one node
_NODE_OPS = {
    DeleteSubtree: ("DELETE_SUBTREE", delete_subtree),
    TrimRoot: ("TRIM_ROOT", trim_root),
    DeleteLeaf: ("DELETE_LEAF", delete_leaf),
}
_OP_OF_VERB = {verb: op for op, (verb, _) in _NODE_OPS.items()}


def parse_script(text: str) -> list[ScriptLine]:
    lines = []
    for lineno, _, _, line in _lines(text):
        toks = line.split()
        try:
            if len(toks) == 3 and toks[1] == "*" and toks[2] == "EXCLUDE":
                region, op = None, ExcludeCase()
            elif len(toks) != 4:
                raise ValueError(f"malformed script line {line!r}")
            else:
                region = Region.from_code(toks[1])
                if toks[2] not in _OP_OF_VERB:
                    raise ValueError(f"unknown operation {toks[2]!r}")
                op = _OP_OF_VERB[toks[2]](toks[3])
        except ValueError as e:
            raise EditScriptError(f"line {lineno}: {e}")
        lines.append(ScriptLine(toks[0], region, op, lineno))
    return lines


def format_script(lines: list[ScriptLine]) -> str:
    out = []
    for line in lines:
        if isinstance(line.op, ExcludeCase):
            out.append(f"{line.subject_id} * EXCLUDE")
            continue
        verb = _NODE_OPS[type(line.op)][0]
        out.append(f"{line.subject_id} {line.region.value} {verb} {line.op.node_id}")
    return "".join(l + "\n" for l in out)


def apply_script(corpus: dict[tuple[str, str], BinaryTree],
                 script: list[ScriptLine]) -> dict[tuple[str, str], BinaryTree]:
    """Apply script lines in order to a corpus keyed by (subject, region code).

    Untouched trees pass through unchanged.
    """
    out = dict(corpus)
    for line in script:
        try:
            if isinstance(line.op, ExcludeCase):
                keys = [k for k in out if k[0] == line.subject_id]
                if not keys:
                    raise EditScriptError(f"no trees for subject {line.subject_id!r}")
                for k in keys:
                    del out[k]
                continue
            key = (line.subject_id, line.region.value)
            if key not in out:
                raise EditScriptError(f"no tree for {line.subject_id}/{line.region.value}")
            out[key] = _NODE_OPS[type(line.op)][1](out[key], line.op.node_id)
        except (EditScriptError, UnknownNodeError) as e:
            # a KeyError's str() is its message's repr
            raise EditScriptError(f"line {line.lineno}: {e.args[0]}")
    return out
