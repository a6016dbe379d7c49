"""Finite k-homogeneous trees over a probability space of total mass one.

A tree of branching factor k and depth L partitions the space into k**L
leaves of equal measure; every node at level l below the root carries
measure k**(-l) and splits into k disjoint children of equal measure.
Nodes are addressed as (level, index), which makes father/children and
leaf-block arithmetic O(1).  Trees have at most MAX_LEAVES leaves; larger
ones are refused on construction, before any leaf array exists.
"""
from __future__ import annotations

from dataclasses import dataclass

MAX_LEAVES = 2**24


@dataclass(frozen=True, order=True)
class NodeId:
    """Address of a tree element: level below the root, index within the level."""

    level: int
    index: int


@dataclass(frozen=True)
class TreeSpace:
    """k-homogeneous tree of finite depth.

    Immutable after construction; safe to share across workers.
    """

    k: int
    depth: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"branching factor must be >= 2, got {self.k}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        # k >= 2, so a depth above log2(MAX_LEAVES) is refused before k**depth is formed
        if self.depth >= MAX_LEAVES.bit_length() or self.k ** self.depth > MAX_LEAVES:
            raise ValueError(
                f"k**depth must be at most {MAX_LEAVES} leaves, got k={self.k}, depth={self.depth}"
            )

    @property
    def n_leaves(self) -> int:
        return self.k ** self.depth

    @property
    def leaf_measure(self) -> float:
        return float(self.k) ** (-self.depth)

    @property
    def root(self) -> NodeId:
        return NodeId(0, 0)

    def validate(self, node: NodeId) -> None:
        if not 0 <= node.level <= self.depth:
            raise ValueError(f"level {node.level} outside [0, {self.depth}]")
        if not 0 <= node.index < self.k ** node.level:
            raise ValueError(
                f"index {node.index} outside [0, {self.k ** node.level}) "
                f"at level {node.level}"
            )

    def node_measure(self, node: NodeId) -> float:
        self.validate(node)
        return float(self.k) ** (-node.level)

    def children(self, node: NodeId) -> list[NodeId]:
        """The k disjoint children of a non-leaf node, in index order."""
        self.validate(node)
        if node.level >= self.depth:
            raise ValueError(f"{node} is a leaf and has no children")
        base = self.k * node.index
        return [NodeId(node.level + 1, base + j) for j in range(self.k)]

    def father(self, node: NodeId) -> NodeId:
        """The unique node whose children contain the given node."""
        self.validate(node)
        if node.level == 0:
            raise ValueError("the root has no father")
        return NodeId(node.level - 1, node.index // self.k)

    def leaf_range(self, node: NodeId) -> tuple[int, int]:
        """Contiguous block of leaves under the node, as (first, count)."""
        self.validate(node)
        span = self.k ** (self.depth - node.level)
        return node.index * span, span

    def contains(self, outer: NodeId, inner: NodeId) -> bool:
        """Whether ``inner`` is a (non-strict) descendant of ``outer``."""
        self.validate(outer)
        self.validate(inner)
        if inner.level < outer.level:
            return False
        return inner.index // self.k ** (inner.level - outer.level) == outer.index
