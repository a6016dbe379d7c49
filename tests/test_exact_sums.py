"""weight._fsum against math.fsum, bit for bit.

Rows of _BINNED terms or more are added in bins per binary exponent, shorter
ones by math.fsum itself.  The drawn arrays reach both sides of the cutoff,
up to 2^16 terms, as vectors and as rows of a 2-d array, with subnormals,
magnitudes from 1e-304 to 1e304, exact half-even ties, zeros and mixed
signs.  A trace and the sets it sums over are then compared with every sum
binned and with none (the golden corpus is hashed with every sum binned in
test_trace_golden.py).
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treerhi import FractionalSet, TreeSpace, gen_random, trace_theorem1, weight
from treerhi.weight import _BINNED, _fsum

KINDS = ("uniform", "wide", "subnormal", "sparse", "ties", "powers", "cancelling")


def _cancelling(n: int, rng: np.random.Generator) -> np.ndarray:
    """A tie, 2^60 + 2^7, after a run of terms of one binade and their
    negatives: the run's partial sums hold about n/2 full mantissas, which a
    bin adds exactly only if the terms are split."""
    run = rng.random(max(n - 2, 0) // 2) + 1.0
    return np.r_[run, -run, 2.0**60, 2.0**7][-n:]


def _terms(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n finite doubles of one kind, non-negative but for the cancelling kind."""
    if kind == "cancelling":
        return _cancelling(n, rng)
    if kind == "uniform":
        return rng.random(n)
    if kind == "wide":  # magnitudes 1e-304 to 1e304: 2^16 of them can overflow
        return 10.0 ** rng.uniform(-304, 304, n)
    if kind == "subnormal":  # subnormals among the smallest normals
        return rng.integers(0, 2**53, n) * 2.0 ** rng.integers(-1074, -1010, n)
    if kind == "sparse":  # mostly zeros
        return np.where(rng.random(n) < 0.9, 0.0, rng.random(n) * 2.0 ** rng.integers(-60, 60, n))
    if kind == "powers":  # powers of two, 2^-1022 included: each starts a binade
        return 2.0 ** np.where(rng.random(n) < 0.5, rng.integers(-1022, -1000, n),
                               rng.integers(-8, 8, n))
    # an exact half-way sum: m * 2^e plus half its last place in 2^r pieces,
    # which rounds to the even neighbour
    terms = np.zeros(n)
    e = int(rng.integers(-900, 900))
    terms[0] = float(rng.integers(2**52, 2**53)) * 2.0**e
    if n > 1:
        r = int(rng.integers(0, (n - 1).bit_length()))
        terms[1:1 + 2**r] = 2.0 ** (e - 1 - r)
    return rng.permutation(terms)


@st.composite
def term_arrays(draw) -> np.ndarray:
    """A vector (rows 0) or a 2-d array of up to 2^16 terms of one kind; signed
    arrays are kept small enough that no sum of their magnitudes overflows."""
    rows = draw(st.sampled_from([0, 2, 5]))
    most = 2**16 // max(rows, 1)
    n = draw(st.one_of(st.integers(1, 2 * _BINNED), st.integers(2 * _BINNED, most)))
    kind = draw(st.sampled_from(KINDS))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = np.array([_terms(kind, n, rng) for _ in range(max(rows, 1))])
    if signed:
        terms *= rng.choice([-1.0, 1.0], terms.shape) * (1e-5 if kind == "wide" else 1.0)
    return terms if rows else terms[0]


def _reference(row: np.ndarray) -> float | None:
    """math.fsum of the row, None where it overflows."""
    try:
        return math.fsum(row.tolist())
    except OverflowError:
        return None


def _check(terms: np.ndarray) -> None:
    """_fsum's bits are fsum's; where fsum overflows it is not finite, or the
    whole call raises fsum's OverflowError."""
    expected = [_reference(row) for row in terms.reshape(-1, terms.shape[-1])]
    try:
        found = np.atleast_1d(_fsum(terms)).tolist()
    except OverflowError:
        assert None in expected
        return
    assert len(found) == len(expected)
    for f, e in zip(found, expected):
        if e is None:
            assert not math.isfinite(f)
        else:
            assert f.hex() == e.hex()


@given(terms=term_arrays())
@example(terms=np.zeros(_BINNED))
@example(terms=np.zeros((3, _BINNED)))
@settings(max_examples=150, deadline=None)
def test_fsum_matches_math_fsum(terms):
    _check(terms)


@pytest.mark.parametrize("terms", [
    np.full(_BINNED, 1.7e308),  # overflows: fsum raises, the bins give inf
    np.r_[5e-324, np.zeros(_BINNED)],  # one subnormal among zeros
    np.r_[1.0, 2.0**-53, np.zeros(_BINNED)],  # a tie, to even: 1.0
    np.r_[1.0, 2.0**-53, 2.0**-105, np.zeros(_BINNED)],  # just above the tie
    np.r_[np.full(_BINNED, 2.0**-1022), np.full(_BINNED, 2.0**-1023)],  # both sides of normal
    np.array([1e-300, 1e300] * _BINNED),  # bins would outnumber terms: listed
    np.array([1e-300, 1e300] * 1024),  # a wide range in one row, binned
    np.array([[1e-300, 1e300] * _BINNED, [1.0] * (2 * _BINNED)]),  # bins would outnumber terms
    np.full((4, _BINNED), 0.1),
    _cancelling(2**16, np.random.default_rng(0)),
])
def test_fsum_edges_match_math_fsum(terms):
    _check(terms)


@pytest.mark.parametrize("binned", [0, 2**30])
def test_trace_and_sets_match_with_every_sum_binned_or_none(binned, monkeypatch):
    w = gen_random(TreeSpace(2, 12), 0)
    fractions = np.random.default_rng(0).random(w.space.n_leaves)
    fractions[::3] = 0.0

    def outputs():
        s = FractionalSet(w.space, 0, fractions)
        trace = trace_theorem1(w, 2.0, 0.5)
        return trace.to_json(), s.measure, s.integral(w), s.integral(w, 3.0)

    default = outputs()
    monkeypatch.setattr(weight, "_BINNED", binned)
    assert outputs() == default
