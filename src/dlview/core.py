"""Shared domain types for vessel graphs and the binary component trees.

Everything here is immutable after construction; tree edits build new trees.
They do so by path copying (`BinaryTree.with_subtree`): only the ancestors
of the changed node are copied, and every other subtree is shared, node for
node, between the old tree and the new one.

Per-node subtree quantities come from one preorder interval index per tree
(`BinaryTree.preorder`, built on first use and then cached).  Nodes are
numbered in preorder, left before right, so the root is 0 and every parent
precedes its children.  With size[i] the node count of the subtree under
node i (the node included), that subtree is exactly the slice
[i, i + size[i]) of the preorder arrays; the left child, if any, sits at
i + 1 and the right child at i + 1 + size of the left subtree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional


class Region(enum.Enum):
    BACK = "B"
    LEFT = "L"
    RIGHT = "R"
    FRONT = "F"

    @classmethod
    def from_code(cls, code: str) -> "Region":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown region code {code!r} (expected B, L, R or F)")

    @property
    def label(self) -> str:
        return self.name.capitalize()


class UnknownNodeError(KeyError):
    """A node reference does not exist in the tree it was used against."""


@dataclass(frozen=True)
class VesselPoint:
    x: float
    y: float
    z: float
    radius: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z, self.radius):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate/radius in {self!r}")
        if self.radius <= 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class VesselSegment:
    segment_id: str
    points: tuple[VesselPoint, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError(f"segment {self.segment_id!r} needs >= 2 points")


@dataclass(frozen=True)
class RawVesselGraph:
    """Forest of vessel segments for one subject/region."""

    subject_id: str
    region: Region
    segments: dict[str, VesselSegment]
    edges: frozenset[tuple[str, str]]  # (parent_sid, child_sid)
    roots: tuple[str, ...]

    def __post_init__(self):
        children: dict[str, list[str]] = {}
        for p, c in self.edges:
            children.setdefault(p, []).append(c)
        object.__setattr__(self, "_children", {
            p: tuple(sorted(kids, key=_id_sort_key)) for p, kids in children.items()
        })
        object.__setattr__(self, "_validated", False)

    def children_of(self, sid: str) -> tuple[str, ...]:
        """Child segment ids, sorted by id."""
        return self._children.get(sid, ())

    def validate(self) -> None:
        """Raise ValueError unless the edges form a forest under `roots`.

        A graph that passed once is not checked again.
        """
        if self._validated:
            return
        parent: dict[str, str] = {}
        for p, c in self.edges:
            if p not in self.segments or c not in self.segments:
                raise ValueError(f"edge ({p}, {c}) references unknown segment")
            if c in parent:
                raise ValueError(f"segment {c!r} has more than one parent")
            parent[c] = p
        if not self.roots:
            raise ValueError("graph has no roots")
        for r in self.roots:
            if r not in self.segments:
                raise ValueError(f"root {r!r} is not a declared segment")
            if r in parent:
                raise ValueError(f"root {r!r} has a parent")
        # cycle + reachability: every segment reachable from exactly one root
        seen: set[str] = set()
        for r in self.roots:
            stack = [r]
            while stack:
                s = stack.pop()
                if s in seen:
                    raise ValueError(f"segment {s!r} reachable twice (cycle or shared)")
                seen.add(s)
                stack.extend(self._children.get(s, ()))
        unreachable = set(self.segments) - seen
        if unreachable:
            raise ValueError(f"segments not reachable from any root: {sorted(unreachable)}")
        object.__setattr__(self, "_validated", True)


def _id_sort_key(sid: str):
    # numeric ids sort numerically, everything else lexicographically after
    return (0, int(sid), "") if sid.isdigit() else (1, 0, sid)


@dataclass(frozen=True)
class BinaryNode:
    """One vessel trunk between two split points.

    thickness is the trunk's median diameter in mm; None only for the
    phantom root joining two root vessels.
    """

    node_id: str
    thickness: Optional[float]
    left: Optional["BinaryNode"] = None
    right: Optional["BinaryNode"] = None

    def __post_init__(self):
        if self.thickness is not None and self.thickness < 0:
            raise ValueError(f"negative thickness on node {self.node_id!r}")

    @property
    def children(self) -> tuple["BinaryNode", ...]:
        return tuple(c for c in (self.left, self.right) if c is not None)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class PreorderIndex(NamedTuple):
    """Per-node arrays of one tree, indexed by preorder position."""

    nodes: list[BinaryNode]
    parent: list[int]  # -1 for the root
    level: list[int]   # the root sits at level 0
    size: list[int]    # nodes in the subtree, the node itself included


@dataclass(frozen=True)
class BinaryTree:
    subject_id: str
    region: Region
    root: BinaryNode
    node_count: int = field(default=0)

    def __post_init__(self):
        nodes: list[BinaryNode] = []
        position: dict[str, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.node_id in position:
                raise ValueError(f"duplicate node_id {node.node_id!r}")
            position[node.node_id] = len(nodes)
            nodes.append(node)
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)
        if self.node_count == 0:
            object.__setattr__(self, "node_count", len(nodes))
        elif self.node_count != len(nodes):
            raise ValueError(
                f"node_count {self.node_count} != reachable nodes {len(nodes)}"
            )
        if self.root.thickness is None and len(self.root.children) != 2:
            raise ValueError("phantom root must have exactly 2 children")
        for node in nodes:
            if node.thickness is None and node is not self.root:
                raise ValueError(f"non-root node {node.node_id!r} lacks thickness")
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_position", position)

    @cached_property
    def preorder(self) -> PreorderIndex:
        """The preorder interval index (see the module docstring)."""
        nodes = self._nodes
        n = len(nodes)
        parent = [-1] * n
        level = [0] * n
        for i, node in enumerate(nodes):
            for c in (node.left, node.right):
                if c is not None:
                    j = self._position[c.node_id]
                    parent[j] = i
                    level[j] = level[i] + 1
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parent[i]] += size[i]
        return PreorderIndex(nodes, parent, level, size)

    def position(self, node_id: str) -> int:
        """Preorder position of the node."""
        try:
            return self._position[node_id]
        except KeyError:
            raise UnknownNodeError(
                f"node {node_id!r} not in tree {self.subject_id}/{self.region.value}"
            )

    def node(self, node_id: str) -> BinaryNode:
        return self._nodes[self.position(node_id)]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._position

    def parent_id(self, node_id: str) -> Optional[str]:
        p = self.preorder.parent[self.position(node_id)]
        return None if p < 0 else self._nodes[p].node_id

    def nodes(self) -> Iterator[BinaryNode]:
        """Pre-order traversal, left before right."""
        return iter(self._nodes)

    def with_subtree(self, node_id: str, repl: BinaryNode) -> "BinaryTree":
        """This tree with the subtree under node_id replaced by repl.

        Copies only the node's ancestors; every other subtree is shared.
        """
        nodes, parent = self._nodes, self.preorder.parent
        i = self.position(node_id)
        while parent[i] >= 0:
            p = nodes[parent[i]]
            left, right = (repl, p.right) if p.left is nodes[i] else (p.left, repl)
            repl = BinaryNode(p.node_id, p.thickness, left, right)
            i = parent[i]
        return BinaryTree(self.subject_id, self.region, repl)


def descendant_count(tree: BinaryTree, node_id: str) -> int:
    """Number of proper descendants of the node (the node itself excluded)."""
    return tree.preorder.size[tree.position(node_id)] - 1


def node_level(tree: BinaryTree, node_id: str) -> int:
    """Depth of the node; the root sits at level 0."""
    return tree.preorder.level[tree.position(node_id)]


@dataclass(frozen=True)
class CorpusEntry:
    tree: BinaryTree
    covariate: Optional[float] = None

    def __post_init__(self):
        if self.covariate is not None and not math.isfinite(self.covariate):
            raise ValueError("covariate must be finite")
