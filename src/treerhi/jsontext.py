"""The text ``json.dumps(..., indent=2)`` writes for trace values.

json.dumps with an indent runs the pure-Python encoder, which costs more
than the trace itself.  Here each column is written in a few whole-column
passes, with no Python call per value, set or node: numbers and strings go
through C-level maps and one float memo, all NodeIds of a list through one
%-format of a node template, the items of a list of containers (a record's
members, a row of fraction maps) through one join per container, and a table
of objects through one join of the pieces of all its rows.  The fraction
maps of a trace's sets spell each block leaf's whole item ``"i": 1.0`` once
and gather it into every set that holds the leaf whole.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .tree import NodeId

_NL = tuple("\n" + "  " * d for d in range(8))  # line break and indent at depth d
_SEP = tuple("," + nl for nl in _NL)
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# the writer of a value of each of these types on its own
_SCALARS = {bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__, int: int.__repr__,
            float: _float, str: encode_basestring_ascii}


@functools.cache
def _template(kind: type, d: int, extra: tuple[str, ...] = ()) -> tuple[tuple[str, ...], str]:
    """Field names of a dataclass, then the extra names, and a %-template of
    its JSON at depth d: an object of these keys."""
    names = tuple(f.name for f in fields(kind)) + extra
    keys = [_NL[d + 1] + encode_basestring_ascii(n) + ": %s" for n in names]
    return names, "{" + ",".join(keys) + _NL[d] + "}"


def _pieces(kind: type, columns: list, d: int) -> list:
    """For the JSON objects of ``kind`` at depth d whose fields' texts are the
    columns, iterables of texts that, read in step, write one object each:
    the template's texts around the fields, and the columns.  A field's
    texts are a list, or a tuple of lists whose texts it joins (see
    _containers)."""
    first, *keys = _template(kind, d)[1].split("%s")
    pieces = [itertools.repeat(first)]
    for column, key in zip(columns, keys):
        pieces += column if type(column) is tuple else (column,)
        pieces.append(itertools.repeat(key))
    return pieces


def _rows(kind: type, columns: list, d: int) -> list[str]:
    """The JSON objects of ``kind`` at depth d whose fields' texts are the columns."""
    return list(map("".join, zip(*_pieces(kind, columns, d))))


def _table(kind: type, columns: list, d: int) -> str:
    """The list at depth d of the objects of _rows, as one join of all their
    pieces, row after row."""
    if not columns[0]:
        return "[]"
    pieces = list(itertools.chain.from_iterable(
        zip(itertools.repeat(_SEP[d + 1]), *_pieces(kind, columns, d + 1))))
    pieces[0] = "[" + _NL[d + 1]
    return "".join(pieces) + _NL[d] + "]"


def _whole_items(leaves: np.ndarray) -> list[str]:
    """The JSON item of each leaf held whole, the commonest share, spelled
    by one %-format of all of them."""
    return ('"%d": 1.0\n' * leaves.size % tuple(leaves.tolist())).split("\n")[:-1]


def _containers(open_: str, items: list[str], ends: list[int], close: str,
                d: int) -> tuple[list[str], list[str], list[str]]:
    """The containers at depth d of items[:ends[0]], items[ends[0]:ends[1]], ...
    as three columns whose texts, joined row by row, write them: the
    openings, the items joined, one join each, and the closings."""
    starts = [0, *ends[:-1]]
    opens, closes = [open_ + _NL[d + 1]] * len(ends), [_NL[d] + close] * len(ends)
    for i in itertools.compress(itertools.count(), map(operator.eq, starts, ends)):
        opens[i], closes[i] = open_, close
    return opens, list(map(_SEP[d + 1].join, map(items.__getitem__, map(slice, starts, ends)))), closes


class _Writer:
    """Values as ``json.dumps(..., indent=2)`` writes them, a column at a time.

    A dataclass is an object of its fields in declaration order and a list
    or tuple (a NodeId too) is a list.  Numbers are spelled by float.__repr__
    and int.__repr__, as json spells them; repr() would spell a numpy float
    as np.float64(...).  Other types, such as numpy integers and bools, raise
    TypeError as in json.  A trace repeats its threshold, averages and
    measures across records and assertions, and spelling a float takes about
    a microsecond, so each distinct float is spelled once per writer.
    """

    def __init__(self) -> None:
        # zeros look up None: 0.0 and -0.0 are equal keys but spelled apart
        self.texts: dict[float, str | None] = {0.0: None, math.inf: "Infinity",
                                               -math.inf: "-Infinity"}

    def floats(self, values: list) -> list[str]:
        texts = self.texts
        distinct = dict.fromkeys(values)
        new = distinct.keys() - texts.keys()
        spelled = list(map(float.__repr__, new))
        if "nan" in spelled:
            spelled = ["NaN" if text == "nan" else text for text in spelled]
        texts.update(zip(new, spelled))
        out = list(map(texts.get, values))
        if 0.0 in distinct:  # zeros looked up None
            out = [float.__repr__(x) if t is None else t for t, x in zip(out, values)]
        return out

    def items(self, values: list, d: int) -> list[str]:
        """Each value of the list at nesting depth d: a list of one type in
        one pass, a mixed one value by value."""
        kinds = set(map(type, values))
        if len(kinds) != 1:
            return [_SCALARS[type(v)](v) if type(v) in _SCALARS else self.items([v], d)[0]
                    for v in values]
        kind = kinds.pop()
        if issubclass(kind, float):
            return self.floats(values)
        if kind in _SCALARS:
            return list(map(_SCALARS[kind], values))
        if kind is NodeId:
            flat = list(itertools.chain.from_iterable(values))
            if set(map(type, flat)) == {int}:
                # %d would also spell a bool or a numpy int, which json spells
                # apart or refuses, so only ints take the node template
                node = "[" + _NL[d + 1] + "%d" + _SEP[d + 1] + "%d" + _NL[d] + "]\0"
                return (node * len(values) % tuple(flat)).split("\0")[:-1]
        if issubclass(kind, (list, tuple)):
            return list(map("".join, zip(*self.lists(values, d))))
        if is_dataclass(kind):  # all fields at once, then split
            texts = self.items([getattr(v, n) for n in _template(kind, d)[0] for v in values], d + 1)
            r = len(values)
            return _rows(kind, [texts[i:i + r] for i in range(0, len(texts), r)], d)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def lists(self, values: list, d: int) -> tuple[list[str], list[str], list[str]]:
        """The lists or tuples of ``values`` at depth d, all items in one
        pass, as _containers' three columns."""
        flat = list(itertools.chain.from_iterable(values))
        ends = list(itertools.accumulate(map(len, values)))
        return _containers("[", self.items(flat, d + 1), ends, "]", d)

    def set_maps(self, firsts: np.ndarray, sizes: np.ndarray, sets: np.ndarray,
                 d: int) -> list[tuple[list[str], list[str], list[str]]]:
        """The leaf -> fraction maps at depth d of the kernels, fillers, Gamma
        and delta sets, the rows of ``sets``, as _containers' three columns
        per row: in each row, set s holds the ``sizes[s]`` fractions after
        those of the sets before it, over the leaves from ``firsts[s]`` on.

        Each block leaf's whole item is spelled once and gathered into every
        set that holds the leaf whole.  The fractional shares are spelled
        through the float memo, so a share that the filler and Gamma hold at
        the same leaf is spelled once.
        """
        if not sizes.size:
            return [([], [], [])] * len(sets)
        n = sets.shape[1]
        ends = sizes.cumsum()
        leaves = np.arange(n) + (firsts - ends + sizes).repeat(sizes)  # the leaf at each position
        if leaves.dtype.kind not in "iu":  # '%d' would spell a numpy int, a key json refuses
            raise TypeError(f"leaf indices of dtype {leaves.dtype} are not JSON keys")
        rows, at = sets.nonzero()
        shares = sets[rows, at]
        items = np.array(_whole_items(leaves), dtype=object)[at]
        part = (shares != 1.0).nonzero()[0]
        pairs = zip(leaves[at[part]].tolist(), self.floats(shares[part].tolist()))
        items[part] = ('"%d": %s\n' * part.size % tuple(
            itertools.chain.from_iterable(pairs))).split("\n")[:-1]
        cuts = (rows * n + at).searchsorted((np.arange(0, sets.size, n)[:, None] + ends).ravel())
        maps = _containers("{", items.tolist(), cuts.tolist(), "}", d)
        f = sizes.size
        return [tuple(column[j:j + f] for column in maps) for j in range(0, f * len(sets), f)]
