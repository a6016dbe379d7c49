"""The text ``json.dumps(..., indent=2)`` writes for trace values.

json.dumps with an indent runs the pure-Python encoder, which costs more
than the trace itself; here each list is written a column at a time, so
numbers and strings go through C-level maps.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

_NL = tuple("\n" + "  " * d for d in range(8))  # line break and indent at depth d
_SEP = tuple("," + nl for nl in _NL)
_BOOL = {True: "true", False: "false"}


class _Table(NamedTuple):
    """A list of ``kind`` objects held as one column per field."""
    kind: type
    columns: dict


class _Sets(NamedTuple):
    """Rows of fractional sets: in each row of ``flat``, set i holds leaves
    from ``firsts[i]`` on, its ``sizes[i]`` fractions following those of
    the sets before it."""
    firsts: np.ndarray
    sizes: np.ndarray
    flat: np.ndarray


class _SetColumn(NamedTuple):
    """The sets of one row of ``sets``, written together with its other rows."""
    sets: _Sets
    row: int


@functools.cache
def _template(kind: type, d: int) -> tuple[tuple[str, ...], str]:
    """Field names of a dataclass and a %-template of its JSON at depth d:
    an object of the fields."""
    names = tuple(f.name for f in fields(kind))
    keys = [_NL[d + 1] + encode_basestring_ascii(n) + ": %s" for n in names]
    return names, "{" + ",".join(keys) + _NL[d] + "}"


def _whole_items(leaves: np.ndarray) -> list[str]:
    """The JSON item of each leaf held whole, the commonest share, spelled
    by one %-format of all of them."""
    return ('"%d": 1.0\n' * leaves.size % tuple(leaves.tolist())).split("\n")[:-1]


def _container(open_: str, items: list[str], close: str, d: int) -> str:
    if not items:
        return open_ + close
    return open_ + _NL[d + 1] + _SEP[d + 1].join(items) + _NL[d] + close


def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


class _Writer:
    """Values as ``json.dumps(..., indent=2)`` writes them, a column at a time.

    A dataclass is an object of its fields in declaration order, a list or
    tuple (a NodeId too) is a list, a _Table is the list of its rows and a
    _SetColumn's set maps each leaf in the set to its fraction.  Numbers are
    spelled by float.__repr__ and int.__repr__, as json spells them; repr()
    would spell a numpy float as np.float64(...).  Other types, such as numpy
    integers and bools, raise TypeError as in json.  A trace repeats its
    threshold, averages and measures across records and assertions, and
    spelling a float takes about a microsecond, so each distinct nonzero
    float is spelled once per writer.
    """

    def __init__(self) -> None:
        self.texts: dict[float, str] = {}
        self.maps: dict[int, list[list[str]]] = {}  # by id of the _Sets written

    def floats(self, values: list) -> list[str]:
        texts = self.texts
        new = [x for x in dict.fromkeys(values) if x and x not in texts]
        texts.update(zip(new, map(_float, new)))
        out = list(map(texts.get, values))
        if None in out:  # zeros: 0.0 and -0.0 are equal keys but spelled apart
            out = [_float(x) if text is None else text for text, x in zip(out, values)]
        return out

    def fraction_maps(self, sets: _Sets, d: int) -> list[list[str]]:
        """The leaf -> fraction map of each set of each row at depth d, from
        one pass over the nonzero fractions of all rows and a join per set."""
        firsts, sizes, flat = sets
        if not flat.size:
            return [["{}"] * len(sizes)] * len(flat)
        ends = sizes.cumsum()
        inside = flat.ravel().nonzero()[0]
        at = inside % flat.shape[1]
        leaves = at + (firsts - ends + sizes)[ends.searchsorted(at, side="right")]
        items = _whole_items(leaves)
        fractions = flat.ravel()[inside]
        part = (fractions != 1.0).nonzero()[0]
        for i, leaf, text in zip(part.tolist(), leaves[part].tolist(),
                                 self.floats(fractions[part].tolist())):
            items[i] = f'"{leaf}": {text}'
        cuts = inside.searchsorted(np.add.outer(np.arange(0, flat.size, flat.shape[1]), ends))
        cuts = cuts.ravel().tolist()
        maps = [_container("{", items[lo:hi], "}", d) for lo, hi in zip([0] + cuts, cuts)]
        return [maps[j:j + len(sizes)] for j in range(0, len(maps), len(sizes))]

    def rows(self, kind: type, columns: dict, d: int) -> list[str]:
        """The JSON objects of ``kind`` at depth d whose fields hold the
        columns: lists of values, or _SetColumns."""
        names, template = _template(kind, d)
        columns = [columns[n] for n in names]
        return list(map(template.__mod__, zip(*[
            self.set_items(c, d + 1) if type(c) is _SetColumn else self.items(c, d + 1)
            for c in columns])))

    def set_items(self, column: _SetColumn, d: int) -> list[str]:
        key = id(column.sets)  # the table that holds the column keeps it alive
        if key not in self.maps:
            self.maps[key] = self.fraction_maps(column.sets, d)
        return self.maps[key][column.row]

    def items(self, values: list, d: int) -> list[str]:
        """Each value of the list at nesting depth d."""
        kinds = set(map(type, values))
        if len(kinds) != 1:
            return [self.items([v], d)[0] for v in values]
        kind = kinds.pop()
        if kind is bool:
            return list(map(_BOOL.__getitem__, values))
        if kind is type(None):
            return ["null"] * len(values)
        if issubclass(kind, int):
            return list(map(int.__repr__, values))
        if issubclass(kind, float):
            return self.floats(values)
        if issubclass(kind, str):
            return list(map(encode_basestring_ascii, values))
        if kind is _Table:
            tables = [_container("[", self.rows(v.kind, v.columns, d + 1), "]", d) for v in values]
            self.maps.clear()  # read by those rows only
            return tables
        if issubclass(kind, (list, tuple)):  # all lists at once, then split
            flat = self.items([x for v in values for x in v], d + 1)
            ends = list(itertools.accumulate(map(len, values)))
            return [_container("[", flat[end - len(v):end], "]", d)
                    for v, end in zip(values, ends)]
        if is_dataclass(kind):
            names = _template(kind, d)[0]
            return self.rows(kind, {n: [getattr(v, n) for v in values] for n in names}, d)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
