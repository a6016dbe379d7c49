"""Measurable subsets of a tree's leaves, as arrays of leaf fractions.

A set holds each leaf of a contiguous window by a share in [0, 1]: the
model of a non-atomic measure space on which the tracer builds its kernels,
fillers, Gamma and delta sets and its top sets.
"""
from __future__ import annotations

import itertools

import numpy as np

from .tree import NodeId, TreeSpace
from .weight import DyadicWeight, _fsum, _power_average

EQ_REL_TOL = 1e-12


def _powers(values: np.ndarray, q: float) -> np.ndarray:
    # Python's float power: np.power can differ from it in the last bit
    return np.fromiter(map(pow, values.tolist(), itertools.repeat(q)), np.float64, values.size)


class FractionalSet:
    """Measurable subset as per-leaf fractions in [0, 1] over a leaf window.

    ``window[i]`` is the share of leaf ``first + i`` in the set; a leaf with
    share 0, or outside the window, is not in the set.  Models
    non-atomicity: a leaf may contribute any fraction of its measure,
    carrying the leaf's value on that fraction.
    """

    def __init__(self, space: TreeSpace, first: int, fractions) -> None:
        window = np.array(fractions, dtype=np.float64)
        if window.ndim != 1 or not 0 <= first <= space.n_leaves - window.size:
            raise ValueError(f"window of {window.size} leaves at leaf {first} out of range")
        _check_fractions(window)
        window.setflags(write=False)
        self.space = space
        self.first = first
        self.window = window

    @classmethod
    def _checked(cls, space: TreeSpace, first: int, window: np.ndarray) -> "FractionalSet":
        """A set over a read-only window whose range the caller has checked."""
        s = cls.__new__(cls)
        s.space, s.first, s.window = space, first, window
        return s

    @classmethod
    def from_node(cls, space: TreeSpace, node: NodeId) -> "FractionalSet":
        first, count = space.leaf_range(node)
        return cls(space, first, np.ones(count))

    @classmethod
    def union(cls, space: TreeSpace, parts) -> "FractionalSet":
        """Union of pairwise disjoint parts over the whole tree (fractions capped at 1)."""
        fractions = np.zeros(space.n_leaves)
        for part in parts:
            block = fractions[part.first:part.first + part.window.size]
            np.minimum(block + part.window, 1.0, out=block)
        return cls(space, 0, fractions)

    @property
    def measure(self) -> float:
        return _fsum(self.window) * self.space.leaf_measure

    def integral(self, weight: DyadicWeight, q: float = 1.0) -> float:
        inside = self.window.nonzero()[0]  # value**q only where the set has mass
        values = weight.values[inside + self.first]
        window, h = self.window[inside], self.space.leaf_measure
        return _power_average(q, values, lambda: _fsum(
            window * (values if q == 1.0 else _powers(values, q))) * h)

    def average(self, weight: DyadicWeight, q: float = 1.0) -> float:
        measure = self.measure
        if not measure:
            raise ValueError("set is empty (measure 0): it has no average")
        return self.integral(weight, q) / measure

    def fraction_array(self, first: int = 0, count: int | None = None) -> np.ndarray:
        """Fractions over leaves [first, first + count), by default the whole
        tree; a window that leaves out part of the set is refused."""
        if count is None:
            count = self.space.n_leaves - first
        out = np.zeros(count)
        end = self.first + self.window.size
        lo = max(first, self.first)
        hi = min(first + count, end)
        if lo < hi:
            out[lo - first:hi - first] = self.window[lo - self.first:hi - self.first]
        # a window that sticks out must have nothing in the part cut off
        if (lo, hi) != (self.first, end) and np.count_nonzero(out) < np.count_nonzero(self.window):
            raise ValueError(f"set reaches outside leaves [{first}, {first + count})")
        return out


def _check_fractions(window: np.ndarray) -> None:
    if not (np.minimum.reduce(window, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(window, axis=None, initial=0.0) <= 1.0 + EQ_REL_TOL):
        raise ValueError("fractions must lie in [0, 1]")
