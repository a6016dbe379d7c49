import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerhi import (
    DyadicWeight,
    StepFunction,
    TreeSpace,
    gen_constant,
    gen_random,
    prefix_average,
    prefix_muckenhoupt_constant,
    prefix_rhi_constant,
    ratio_curve,
    rearrangement,
)
from treerhi.cli import write_curve_csv
from treerhi.trace import build_top_set
from helpers import (dense_grid_muckenhoupt_sup, dense_grid_prefix_sup,
                     sorted_merge_rearrangement, step_leaf_values)


def two_step():
    return StepFunction(breakpoints=[0.5, 1.0], values=[3.0, 1.0])


# ---------------------------------------------------------------------------
# StepFunction and rearrangement
# ---------------------------------------------------------------------------

def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction(breakpoints=[0.5, 0.5, 1.0], values=[3, 2, 1])
    with pytest.raises(ValueError):
        StepFunction(breakpoints=[0.5, 0.9], values=[3, 1])
    with pytest.raises(ValueError):
        StepFunction(breakpoints=[0.5, 1.0], values=[1, 3])
    with pytest.raises(ValueError):
        StepFunction(breakpoints=[0.5, 1.0], values=[3, -1])


@pytest.mark.parametrize("breakpoints, values, message", [
    ([np.nan, 1.0], [2.0, 1.0], "breakpoints"),
    ([0.5, np.nan], [2.0, 1.0], "breakpoints"),
    ([0.5, np.inf], [2.0, 1.0], "last breakpoint"),
    ([0.5, 1.0], [np.nan, 1.0], "values"),
    ([0.5, 1.0], [1.0, np.nan], "values"),
    ([0.5, 1.0], [np.inf, 1.0], "values"),
    ([0.5, 1.0], [1.0, -np.inf], "values"),
])
def test_step_function_refuses_non_finite(breakpoints, values, message):
    with pytest.raises(ValueError, match=message):
        StepFunction(breakpoints=breakpoints, values=values)


def test_step_function_keeps_frozen_arrays_and_copies_the_rest():
    frozen = np.array([0.5, 1.0])
    frozen.setflags(write=False)
    writable = np.array([3.0, 1.0])
    view = writable[:]
    view.setflags(write=False)  # read-only, but its owner is not
    h = StepFunction(breakpoints=frozen, values=writable)
    assert h.breakpoints is frozen
    assert h.values is not writable and writable.flags.writeable
    assert not h.values.flags.writeable
    writable[0] = 9.0
    assert h.values[0] == 3.0
    g = StepFunction(breakpoints=frozen, values=view)
    assert g.values is not view and writable.flags.writeable


def test_rearrangement_sort_and_merge():
    h = rearrangement(DyadicWeight.from_leaves(2, 2, [1, 3, 2, 2]))
    assert list(h.breakpoints) == [0.25, 0.75, 1.0]
    assert list(h.values) == [3, 2, 1]


def test_rearrangement_sorted_input_identity():
    h = rearrangement(DyadicWeight.from_leaves(2, 2, [9, 4, 2, 1]))
    assert list(h.breakpoints) == [0.25, 0.5, 0.75, 1.0]
    assert list(h.values) == [9, 4, 2, 1]


def _rearrangement_cases() -> dict[str, DyadicWeight]:
    w = gen_random(TreeSpace(2, 10), 4)
    tied = np.round(w.values, -2)  # many leaves round to the same hundred
    zeros = w.values.copy()
    zeros[::3] = 0.0
    return {
        "untied": w,
        "tied": DyadicWeight(w.space, tied),
        "zeros": DyadicWeight(w.space, zeros),
        "all-equal": gen_constant(TreeSpace(3, 4), 2.5),
        "one-leaf": DyadicWeight.from_leaves(2, 0, [7.0]),
    }


@pytest.mark.parametrize("name, w", sorted(_rearrangement_cases().items()))
def test_rearrangement_matches_sort_and_merge(name, w):
    h = rearrangement(w)
    breakpoints, values = sorted_merge_rearrangement(w)
    assert h.breakpoints.tobytes() == breakpoints.tobytes()
    assert h.values.tobytes() == values.tobytes()


def test_rearrangement_preserves_integral():
    w = gen_random(TreeSpace(3, 3), 1)
    h = rearrangement(w)
    assert prefix_average(h, 1.0) == pytest.approx(w.total_integral, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_rearrangement_equimeasurable(seed):
    w = gen_random(TreeSpace(2, 4), seed)
    h = rearrangement(w)
    n = w.space.n_leaves
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0, float(w.values.max()) * 1.1, 100)
    for lam in lams:
        weight_side = np.count_nonzero(w.values > lam) / n
        mask = h.values > lam
        star_side = float(h.breakpoints[mask][-1]) if mask.any() else 0.0
        assert weight_side == star_side


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_rearrangement_preserves_moments(q):
    w = gen_random(TreeSpace(2, 5), 9)
    h = rearrangement(w)
    direct = float(np.mean(w.values**q))
    assert prefix_average(h, 1.0, q) == pytest.approx(direct, rel=1e-12)


def test_rearrangement_idempotent():
    w = gen_random(TreeSpace(2, 4), 2)
    h = rearrangement(w)
    again = rearrangement(
        DyadicWeight(w.space, step_leaf_values(h, w.space.n_leaves))
    )
    assert np.array_equal(h.breakpoints, again.breakpoints)
    assert np.array_equal(h.values, again.values)


@pytest.mark.parametrize("t", [0.1, 0.25, 0.375, 0.5, 0.8, 1.0])
def test_prefix_integral_dominates_equal_measure_sets(t):
    # the greedy top set attains the prefix integral; any other set of equal
    # measure carries no more mass
    w = gen_random(TreeSpace(2, 4), 3)
    h = rearrangement(w)
    top = build_top_set(w, t)
    prefix_integral = prefix_average(h, t) * t
    assert top.integral(w) == pytest.approx(prefix_integral, rel=1e-12)
    rng = np.random.default_rng(0)
    n = w.space.n_leaves
    for _ in range(20):
        fracs = rng.uniform(0, 1, n)
        fracs *= t / (fracs.sum() / n)
        if fracs.max() > 1:
            continue
        other = float(np.dot(fracs, w.values)) / n
        assert other <= prefix_integral * (1 + 1e-9)


# ---------------------------------------------------------------------------
# prefix averages
# ---------------------------------------------------------------------------

def test_prefix_average_constant():
    h = StepFunction(breakpoints=[1.0], values=[3.0])
    assert prefix_average(h, 0.7, 2.0) == pytest.approx(9.0, rel=1e-12)


def test_prefix_average_two_step():
    h = two_step()
    assert prefix_average(h, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert prefix_average(h, 0.75, 2.0) == pytest.approx(4.75 / 0.75, rel=1e-12)


def test_prefix_average_validation():
    h = two_step()
    with pytest.raises(ValueError):
        prefix_average(h, 0.0)
    with pytest.raises(ValueError):
        prefix_average(h, 1.5)
    with pytest.raises(ValueError):
        prefix_average(StepFunction(breakpoints=[0.5, 1.0], values=[3.0, 0.0]), 1.0, -1.0)


# ---------------------------------------------------------------------------
# prefix constants
# ---------------------------------------------------------------------------

def test_prefix_rhi_constant_function():
    h = StepFunction(breakpoints=[1.0], values=[4.0])
    report = prefix_rhi_constant(h, 2.0)
    assert report.constant == pytest.approx(1.0, rel=1e-12)
    assert report.witness_t == 1.0


def test_prefix_rhi_two_step():
    report = prefix_rhi_constant(two_step(), 2.0)
    assert report.constant == pytest.approx(1.25, rel=1e-12)
    assert report.witness_t == pytest.approx(1.0, abs=1e-10)


def test_prefix_rhi_8211_vs_dense_grid():
    h = rearrangement(DyadicWeight.from_leaves(2, 2, [8, 2, 1, 1]))
    report = prefix_rhi_constant(h, 2.0)
    assert report.constant >= 35 / 18 - 1e-12
    oracle = dense_grid_prefix_sup(h, 2.0, n=1_000_000)
    assert report.constant == pytest.approx(oracle, rel=1e-9)
    assert report.constant >= oracle - 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_prefix_rhi_vs_dense_grid_random(seed, q):
    h = rearrangement(gen_random(TreeSpace(2, 4), seed))
    report = prefix_rhi_constant(h, q)
    oracle = dense_grid_prefix_sup(h, q, n=50_000)
    assert report.constant >= oracle - 1e-12 * oracle
    assert report.constant == pytest.approx(oracle, rel=1e-6)


def test_prefix_rhi_rejects_zero_function():
    with pytest.raises(ValueError):
        prefix_rhi_constant(StepFunction(breakpoints=[1.0], values=[0.0]), 2.0)


def test_prefix_rhi_at_least_one_and_equality_iff_constant():
    flat = StepFunction(breakpoints=[1.0], values=[2.0])
    assert prefix_rhi_constant(flat, 2.0).constant == pytest.approx(1.0, rel=1e-12)
    assert prefix_rhi_constant(two_step(), 2.0).constant > 1.0 + 1e-9


def test_prefix_muckenhoupt_two_step():
    report = prefix_muckenhoupt_constant(two_step(), 2.0)
    oracle = dense_grid_muckenhoupt_sup(two_step(), 2.0, n=200_000)
    assert report.constant == pytest.approx(oracle, rel=1e-9)
    assert report.constant >= 4 / 3 - 1e-12  # value at the t=1 breakpoint


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_prefix_muckenhoupt_interior_witness_vs_dense_grid(p):
    # the sup lies inside the step (0.25, 1], at a stationary point of the ratio
    h = StepFunction(breakpoints=[0.25, 1.0], values=[4.0, 1.0])
    report = prefix_muckenhoupt_constant(h, p)
    assert 0.25 + 1e-3 < report.witness_t < 1.0 - 1e-3
    oracle = dense_grid_muckenhoupt_sup(h, p)
    assert report.constant >= oracle - 1e-12 * oracle
    assert report.constant == pytest.approx(oracle, rel=1e-9)


def test_prefix_muckenhoupt_constant_function():
    flat = StepFunction(breakpoints=[1.0], values=[5.0])
    assert prefix_muckenhoupt_constant(flat, 2.0).constant == pytest.approx(1.0, rel=1e-12)


def test_prefix_muckenhoupt_scale_invariant():
    a = prefix_muckenhoupt_constant(two_step(), 2.0)
    scaled = StepFunction(breakpoints=[0.5, 1.0], values=[30.0, 10.0])
    b = prefix_muckenhoupt_constant(scaled, 2.0)
    assert b.constant == pytest.approx(a.constant, rel=1e-12)
    assert b.witness_t == pytest.approx(a.witness_t, abs=1e-10)


def test_prefix_muckenhoupt_rejects_zero_values():
    with pytest.raises(ValueError):
        prefix_muckenhoupt_constant(
            StepFunction(breakpoints=[0.5, 1.0], values=[3.0, 0.0]), 2.0
        )


@given(seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_prefix_rhi_at_least_breakpoint_ratios(seed):
    h = rearrangement(gen_random(TreeSpace(2, 3), seed))
    report = prefix_rhi_constant(h, 2.0)
    for t in h.breakpoints:
        ratio = prefix_average(h, t, 2.0) / prefix_average(h, t) ** 2
        assert report.constant >= ratio - 1e-12 * ratio


# ---------------------------------------------------------------------------
# curve export
# ---------------------------------------------------------------------------

def test_ratio_curve_constant():
    flat = StepFunction(breakpoints=[1.0], values=[2.0])
    curve = ratio_curve(flat, 2.0, 10)
    assert np.allclose(curve[:, 1], 1.0, rtol=1e-12)


def test_ratio_curve_two_samples():
    flat = StepFunction(breakpoints=[1.0], values=[2.0])
    curve = ratio_curve(flat, 2.0, 2)
    assert curve.shape == (2, 2)
    assert curve[-1, 0] == 1.0


def test_ratio_curve_contains_breakpoints_and_peak():
    h = two_step()
    curve = ratio_curve(h, 2.0, 50)
    assert 0.5 in curve[:, 0] and 1.0 in curve[:, 0]
    assert np.all(np.diff(curve[:, 0]) > 0)
    assert curve[:, 1].max() == pytest.approx(1.25, rel=1e-12)


def test_ratio_curve_validation():
    with pytest.raises(ValueError):
        ratio_curve(two_step(), 2.0, 1)


def test_write_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, ratio_curve(two_step(), 2.0, 5))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,ratio"
    assert len(lines) >= 6
    t, r = lines[-1].split(",")
    assert float(t) == 1.0
    assert float(r) == pytest.approx(1.25, rel=1e-12)
