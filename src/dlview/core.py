"""Shared domain types for vessel graphs and the binary component trees.

Everything here is immutable after construction and checked by it; tree
edits build new trees.

A BinaryTree is three preorder tuples: node ids, thicknesses and subtree
sizes (size[i] counts the nodes under node i, itself included).  Nodes are
numbered in preorder, left before right, so the subtree under node i is the
slice [i, i + size[i]), its left child sits at i + 1 and its right child at
i + 1 + size[i + 1].  A lone child is a left child, as the .dltree format
cannot tell the sides apart.  Construction builds no index: `position`
is `ids.index`, and `ancestors(i)` walks down from the root, each time into
the child whose slice holds i.  An edit is a slice (`subtree`) or a
`splice`, which fixes sizes along `ancestors`, so an edit line costs
O(depth) Python steps plus C-level scans and tuple copies.  Parents and
levels, which scan and layout need for every node, are cached properties:
`parse_dltree` hands each tree the parents its parse found (`_with_parent`),
and any other tree derives them on first use.  `parent` is then one pass
over size: each node i with size[i] > 1 is the parent of i + 1, and of
i + 1 + size[i + 1] when that still lies in its slice.  `level` is always
derived from `parent`.  BinaryNode is only a builder (`BinaryTree(subject,
region, root_node)` flattens a hand-made graph, which the tree then checks)
and a view (`BinaryTree.root`); no stage uses it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain
from typing import Optional


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


class TreeError(ValueError):
    """A BinaryTree check failed at the node in preorder position `node`."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class RawVesselGraph:
    """Forest of vessel segments for one subject/region, checked when built.

    The points are four float columns, x, y, z and radius, one row per
    POINT record in file order, unused rows kept; `segments` maps each id to
    its rows in flow order.  Equality is by columns, so the same values in
    another row order differ: `serialize_vess` writes a graph's value.

    Construction raises ValueError unless `validate` passes, and sorts the
    roots and each parent's children by `_id_sort_key` once, so graphs that
    differ only in root order are equal, as their `serialize_vess` bytes are.
    """

    subject_id: str
    region: Region
    x: tuple[float, ...]
    y: tuple[float, ...]
    z: tuple[float, ...]
    radius: tuple[float, ...]
    segments: dict[str, tuple[int, ...]]  # rows in flow order
    edges: frozenset[tuple[str, str]]  # (parent_sid, child_sid)
    roots: tuple[str, ...]

    def __post_init__(self):
        for name in ("x", "y", "z", "radius"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.roots) > 1:
            object.__setattr__(self, "roots", tuple(sorted(self.roots, key=_id_sort_key)))
        children: dict[str, list[str]] = {}
        for p, c in self.edges:
            children.setdefault(p, []).append(c)
        for kids in children.values():
            if len(kids) > 1:
                kids.sort(key=_id_sort_key)
        object.__setattr__(self, "_children", {p: tuple(kids) for p, kids in children.items()})
        self.validate()

    def children_of(self, sid: str) -> tuple[str, ...]:
        """Child segment ids, sorted by id."""
        return self._children.get(sid, ())

    def validate(self) -> None:
        """Raise ValueError unless the columns hold points and the edges form
        a forest under `roots`.  The columns are checked whole (equal
        lengths, finite values, radii > 0, each segment >= 2 int rows in range);
        only a bad graph pays a loop that names what is wrong.  Then one walk
        from the roots must reach each declared segment once and no other
        id, and every edge parent must be declared.  A second parent, a
        repeated root or a root with a parent is reached twice or leaves a
        parent unreached; a cycle is unreached."""
        columns = (self.x, self.y, self.z, self.radius)
        n = len(self.radius)
        if any(len(c) != n for c in columns):
            raise ValueError(f"point columns differ in length: {list(map(len, columns))}")
        # a NaN or an infinity makes the sum non-finite; so may finite values
        # whose sum overflows, and the loop then finds nothing to refuse
        if not (min(self.radius, default=1.0) > 0.0 and math.isfinite(sum(map(sum, columns)))):
            for row, point in enumerate(zip(*columns)):
                if not (point[3] > 0.0 and all(map(math.isfinite, point))):
                    raise ValueError(f"point row {row} {point} needs finite values, radius > 0")
        rows = self.segments.values()
        if (min(map(len, rows), default=2) < 2 or {*map(type, chain.from_iterable(rows))} - {int}
                or min(chain.from_iterable(rows), default=0) < 0
                or max(chain.from_iterable(rows), default=-1) >= n):
            for sid, seg in self.segments.items():
                if len(seg) < 2 or {*map(type, seg)} - {int} or not 0 <= min(seg) <= max(seg) < n:
                    raise ValueError(f"segment {sid!r} needs >= 2 points, in int rows 0..{n - 1}")
        if not self.roots:
            raise ValueError("graph has no roots")
        seen: set[str] = set()
        stack = list(self.roots)
        while stack:
            s = stack.pop()
            if s in seen:
                raise ValueError(f"segment {s!r} reachable twice (cycle or shared)")
            seen.add(s)
            stack += self._children.get(s, ())
        unknown = seen.union(self._children).difference(self.segments)
        if unknown:
            raise ValueError(f"undeclared segments: {sorted(unknown)}")
        if len(seen) < len(self.segments):
            raise ValueError("segments not reachable from any root: "
                             f"{sorted(self.segments.keys() - seen)}")


def _id_sort_key(sid: str):
    # numeric ids sort numerically, ties (7, 07, 007) by the id string, and
    # everything else lexicographically after; isdecimal, not isdigit, since
    # int() refuses digits such as "²"
    return (0, int(sid), sid) if sid.isdecimal() else (1, 0, sid)


@dataclass(frozen=True)
class BinaryNode:
    """One vessel trunk between two split points: a builder and a view only.

    thickness is the trunk's median diameter in mm; None only for the
    phantom root joining two root vessels.
    """

    node_id: str
    thickness: Optional[float]
    left: Optional["BinaryNode"] = None
    right: Optional["BinaryNode"] = None

    @property
    def children(self) -> tuple["BinaryNode", ...]:
        return tuple(c for c in (self.left, self.right) if c is not None)


def subtree_sizes(parent: list[int]) -> list[int]:
    """Subtree node counts from preorder parent positions (-1 for the root)."""
    size = [1] * len(parent)
    for i in range(len(parent) - 1, 0, -1):
        size[parent[i]] += size[i]
    return size


@dataclass(frozen=True)
class BinaryTree:
    subject_id: str
    region: Region
    root_node: InitVar[Optional[BinaryNode]] = None
    ids: tuple[str, ...] = ()
    thickness: tuple[Optional[float], ...] = ()
    size: tuple[int, ...] = ()

    def __post_init__(self, root_node):
        ids, thickness, size = self.ids, self.thickness, self.size
        if root_node is not None:
            ids, thickness, parent = [], [], []
            stack = [(root_node, -1)]
            while stack:
                node, p = stack.pop()
                parent.append(p)
                ids.append(node.node_id)
                thickness.append(node.thickness)
                for child in (node.right, node.left):
                    if child is not None:
                        stack.append((child, len(ids) - 1))
            size = subtree_sizes(parent)
        for name, value in (("ids", ids), ("thickness", thickness), ("size", size)):
            object.__setattr__(self, name, tuple(value))
        ids, thickness = self.ids, self.thickness
        if len(set(ids)) < len(ids):  # find the second occurrence
            seen: set[str] = set()
            for i, node_id in enumerate(ids):
                if node_id in seen:
                    raise TreeError(f"duplicate node_id {node_id!r}", i)
                seen.add(node_id)
        if thickness[0] is None and len(self.children(0)) != 2:
            raise TreeError("phantom root must have exactly 2 children", 0)
        # two C-level passes: min falls below 0 at a negative (or is NaN), sum
        # is NaN at any NaN, and both raise TypeError at a None; only a bad
        # tree pays the loop that names the first bad node
        given = thickness[1:] if thickness[0] is None else thickness
        try:
            valid = min(given) >= 0.0 and sum(given) >= 0.0
        except TypeError:
            valid = False
        if not valid:
            for i, t in enumerate(thickness):
                if t is None and i:
                    raise TreeError(f"non-root node {ids[i]!r} lacks thickness", i)
                if t is not None and t < 0:
                    raise TreeError(f"negative thickness {t} on node {ids[i]!r}", i)
                if t != t:
                    raise TreeError(f"NaN thickness on node {ids[i]!r}", i)

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def children(self, i: int) -> tuple[int, ...]:
        """Preorder positions of node i's children, left first."""
        size = self.size
        if size[i] == 1:
            return ()
        right = i + 1 + size[i + 1]
        return (i + 1, right) if right < i + size[i] else (i + 1,)

    @cached_property
    def parent(self) -> list[int]:
        """Preorder position of each node's parent; -1 for the root."""
        size = self.size
        parent = [-1] * len(size)
        for i, s in enumerate(size):
            if s > 1:  # the left child, then the right one if the slice holds it
                parent[i + 1] = i
                right = i + 1 + size[i + 1]
                if right < i + s:
                    parent[right] = i
        return parent

    @cached_property
    def level(self) -> list[int]:
        """Depth of each node; the root sits at level 0."""
        parent = self.parent
        level = [0] * len(parent)
        for i in range(1, len(parent)):
            level[i] = level[parent[i]] + 1
        return level

    def ancestors(self, i: int) -> list[int]:
        """Preorder positions of node i's ancestors, root first."""
        size = self.size
        path, a = [], 0
        while a < i:  # a's slice holds i; step into the child whose slice does
            path.append(a)
            a += 1
            if i >= a + size[a]:
                a += size[a]
        return path

    def position(self, node_id: str) -> int:
        """Preorder position of the node."""
        try:
            return self.ids.index(node_id)
        except ValueError:
            raise UnknownNodeError(
                f"node {node_id!r} not in {self.subject_id}/{self.region.value}"
            )

    def subtree(self, i: int) -> "BinaryTree":
        """The subtree under node i as a tree of its own."""
        if i == 0:
            return self
        end = i + self.size[i]
        return BinaryTree(self.subject_id, self.region, ids=self.ids[i:end],
                          thickness=self.thickness[i:end], size=self.size[i:end])

    def splice(self, i: int, ids, thickness, size) -> "BinaryTree":
        """This tree with the subtree under node i replaced by one subtree's
        preorder ids, thicknesses and sizes; only i's ancestors change size."""
        end = i + self.size[i]
        head = list(self.size[:i])
        for a in self.ancestors(i):
            head[a] += len(ids) - self.size[i]
        return BinaryTree(self.subject_id, self.region,
                          ids=self.ids[:i] + tuple(ids) + self.ids[end:],
                          thickness=self.thickness[:i] + tuple(thickness) + self.thickness[end:],
                          size=tuple(head) + tuple(size) + self.size[end:])

    @cached_property
    def root(self) -> BinaryNode:
        """The tree as linked BinaryNodes, built on first use."""
        nodes: list = [None] * len(self.ids)
        for i in range(len(nodes) - 1, -1, -1):
            nodes[i] = BinaryNode(self.ids[i], self.thickness[i],
                                  *(nodes[c] for c in self.children(i)))
        return nodes[0]


def _with_parent(tree: BinaryTree, parent: list[int]) -> BinaryTree:
    """tree, with parent as its cached BinaryTree.parent.

    The caller vouches that parent is what BinaryTree.parent would derive;
    a non-data cached_property is read from the instance once it is set."""
    object.__setattr__(tree, "parent", parent)
    return tree


@dataclass(frozen=True)
class CorpusEntry:
    tree: BinaryTree
    covariate: float

    def __post_init__(self):
        if not math.isfinite(self.covariate):
            raise ValueError("covariate must be finite")
