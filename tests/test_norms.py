"""Size functionals against grid and pyramid oracles."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import maximal_by_rank, weak_lp_every_chunk
from walshlab import (
    DyadicFunction,
    PreconditionError,
    Resolution,
    dirichlet_kernel,
    divergence_experiment,
    hardy_norm_estimate,
    lp_quasinorm,
    maximal_function,
    quarter_cell_min,
    weak_lp,
    weak_lp_in_place,
)
from walshlab.cli import _experiment_config, parse_config_text

REPRO = Path(__file__).resolve().parent.parent / "reproduce"


def grid_weak_oracle(values: np.ndarray, p: float) -> float:
    """Dense-lambda sweep: sup over a grid that includes a point just
    below every level of |f|, where the supremum is attained."""
    mags = np.abs(values)
    top = mags.max()
    if top == 0.0:
        return 0.0
    levels = np.unique(mags)
    levels = levels[levels > 0]
    grid = np.concatenate(
        [np.linspace(top * 1e-9, top, 4001), levels * (1.0 - 1e-12)]
    )
    total = values.size
    best = 0.0
    for lam in grid:
        tail = np.count_nonzero(mags > lam) / total
        best = max(best, lam * tail ** (1.0 / p))
    return best


def test_lp_quasinorm_frozen_values():
    r = Resolution(2)
    two_level = DyadicFunction(r, np.array([2.0, 2.0, 0.0, 0.0]))
    assert lp_quasinorm(two_level, 1.0) == pytest.approx(1.0, abs=0)
    quarter = DyadicFunction(r, np.array([0.0, 0.0, 0.0, 1.0]))
    assert lp_quasinorm(quarter, 0.5) == pytest.approx(0.0625, abs=1e-15)
    # the functionals return the Python float itself
    assert type(lp_quasinorm(quarter, 0.5)) is float


@pytest.mark.parametrize("bits", range(1, 21))
def test_chunked_lp_quasinorm_equals_whole_array_mean(bits):
    # above 16 bits lp_quasinorm sums |f|^p chunk by chunk; the pairwise
    # combination must reproduce np.mean's summation exactly
    r = Resolution(bits)
    values = np.random.default_rng(bits).standard_normal(r.size)
    f = DyadicFunction(r, values)
    for p in (0.4, 0.75, 1.0, 2.0):
        expect = float(np.mean(np.abs(values) ** p) ** (1.0 / p))
        assert lp_quasinorm(f, p) == expect, p


def test_lp_rejects_nonpositive_p():
    r = Resolution(1)
    f = DyadicFunction.constant(1.0, r)
    with pytest.raises(ValueError):
        lp_quasinorm(f, 0.0)
    with pytest.raises(ValueError):
        weak_lp(f, -1.0)
    with pytest.raises(PreconditionError, match="exponent p must be positive"):
        weak_lp_in_place(np.ones(4), 0.0)


def test_p_below_the_floor_is_refused():
    # below p = 2^-20 the power 1/p amplifies the mean's roundoff past the
    # nine printed digits; at the floor a constant still reads within 5e-10
    f = DyadicFunction.constant(5.0, Resolution(3))
    floor = 2.0**-20
    for size in (lp_quasinorm, weak_lp, hardy_norm_estimate):
        for p in (math.nextafter(floor, 0.0), 1e-17, 1e-300):
            with pytest.raises(PreconditionError, match=r"p must be at least 2\^-20"):
                size(f, p)
        assert size(f, floor) == pytest.approx(5.0, rel=5e-10, abs=0), size.__name__


def test_weak_lp_frozen_values():
    r = Resolution(2)
    two_level = DyadicFunction(r, np.array([2.0, 2.0, 0.0, 0.0]))
    assert weak_lp(two_level, 1.0) == pytest.approx(1.0, abs=0)
    quarter = DyadicFunction(r, np.array([0.0, 0.0, 0.0, 1.0]))
    assert weak_lp(quarter, 0.5) == pytest.approx(0.0625, abs=1e-15)
    # |D_4| = 4 on a quarter of the grid, so weak-L_1 = 1
    r4 = Resolution(4)
    assert weak_lp(dirichlet_kernel(4, r4), 1.0) == pytest.approx(1.0, abs=0)
    assert type(weak_lp(quarter, 0.5)) is float


def test_weak_lp_zero_function():
    r = Resolution(3)
    assert weak_lp(DyadicFunction.constant(0.0, r), 0.7) == 0.0


def distribution_scan_oracle(values: np.ndarray, p: float) -> float:
    """Literal scan of the distribution function: for each distinct
    positive level v of |f|, count the cells with |f| >= v."""
    mags = [abs(float(v)) for v in values]
    best = 0.0
    for v in sorted(set(mags)):
        if v > 0.0:
            tail = sum(1 for m in mags if m >= v) / len(mags)
            best = max(best, v * tail ** (1.0 / p))
    return best


def test_weak_lp_with_ties_and_zeros_matches_distribution_scan():
    rng = np.random.default_rng(14)
    r = Resolution(8)
    for p in (0.3, 0.75, 1.0, 1.5):
        for zero_share in (0.0, 0.5, 0.9):
            # few distinct levels, each repeated many times, many zeros
            values = rng.choice([-3.0, -1.0, 0.5, 1.0, 2.0, 3.0], size=r.size)
            values[rng.random(r.size) < zero_share] = 0.0
            exact = weak_lp(DyadicFunction(r, values), p)
            assert exact == pytest.approx(distribution_scan_oracle(values, p), rel=1e-14)
        steps = np.repeat([0.0, 4.0, 0.0, 1.0, 1.0, 4.0, 0.0, 2.0], r.size // 8)
        exact = weak_lp(DyadicFunction(r, steps), p)
        assert exact == pytest.approx(distribution_scan_oracle(steps, p), rel=1e-14)


def test_weak_lp_matches_grid_oracle_smoke():
    rng = np.random.default_rng(11)
    r = Resolution(6)
    for p in (0.4, 0.7, 1.0, 1.6):
        for _ in range(5):
            values = rng.standard_normal(r.size)
            exact = weak_lp(DyadicFunction(r, values), p)
            grid = grid_weak_oracle(values, p)
            assert grid <= exact + 1e-12
            assert abs(grid - exact) <= 1e-6 * exact


@given(st.integers(0, 2**31 - 1), st.floats(0.3, 2.0))
@settings(max_examples=60)
def test_chebyshev_weak_below_strong(seed, p):
    rng = np.random.default_rng(seed)
    r = Resolution(5)
    f = DyadicFunction(r, rng.standard_normal(r.size))
    assert weak_lp(f, p) <= lp_quasinorm(f, p) + 1e-12


def weak_lp_input(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "ties":  # few levels, each repeated, and many zeros
        values = rng.choice([-3.0, -1.0, 0.5, 1.0, 2.0, 3.0], size=size)
        values[rng.random(size) < 0.5] = 0.0
        return values
    if kind == "zeros":
        return np.zeros(size)
    if kind == "constant":
        return np.full(size, -rng.exponential())
    if kind == "spikes":  # the maximum sits in the last chunk of the sort
        values = rng.standard_normal(size) * 1e-3
        values[rng.integers(0, size, 3)] = 1e3
        return values
    return rng.standard_normal(size) * np.exp(5.0 * rng.standard_normal(size))  # "spread"


@given(
    st.sampled_from([1, 2, 15, 16, 17, 18]),
    st.sampled_from(["normal", "ties", "zeros", "constant", "spikes", "spread"]),
    st.integers(0, 2**31 - 1),
    st.floats(0.2, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_weak_lp_is_bit_identical_to_every_chunk(bits, kind, seed, p):
    # sizes 2^15..2^18 put the grid below, at and across the 2^16-cell chunk
    r = Resolution(bits)
    values = weak_lp_input(kind, r.size, np.random.default_rng(seed))
    f = DyadicFunction(r, values)
    buffer = values.copy()
    got = weak_lp_in_place(buffer, p)
    assert got == weak_lp(f, p) == weak_lp_every_chunk(f, p)
    assert type(got) is float
    # the buffer is left holding the sorted magnitudes, and weak_lp sorts
    # a copy, not f's own values
    assert buffer.tobytes() == np.sort(np.abs(values)).tobytes()
    assert f.values.tobytes() == values.tobytes()


# The weak floor: |g| >= m on the quarter cell, a set of measure 1/4, so
# mu(|g| >= m) >= 1/4 and weak_lp(g) >= (1/4)^(1/p) m for every g.  Both
# sides round monotonically from the same exact tail 1/4; the slack covers
# pow's last ulps.
_WEAK_FLOOR_SLACK = 4 * np.finfo(np.float64).eps


def weak_floor(g: DyadicFunction, p: float) -> float:
    return quarter_cell_min(g) * 0.25 ** (1.0 / p)


@given(
    st.integers(2, 12),
    st.sampled_from(["normal", "ties", "zeros", "constant", "spikes", "spread"]),
    st.integers(0, 2**31 - 1),
    st.floats(0.1, 4.0),
)
@settings(max_examples=100, deadline=None)
def test_weak_lp_dominates_the_quarter_cell_floor(bits, kind, seed, p):
    rng = np.random.default_rng(seed)
    r = Resolution(bits)
    g = DyadicFunction(r, weak_lp_input(kind, r.size, rng))
    assert weak_lp(g, p) >= weak_floor(g, p) * (1.0 - _WEAK_FLOOR_SLACK)
    # equality: the quarter cell holds the top quarter of |g| at one level,
    # and no smaller value times its tail factor (at most 1) exceeds the floor
    level = rng.exponential() + 0.5
    values = rng.uniform(-1.0, 1.0, r.size) * level * 0.25 ** (1.0 / p)
    values[rng.random(r.size) < 0.25] = 0.0
    values[3::4] = level * rng.choice([-1.0, 1.0], r.size // 4)
    g = DyadicFunction(r, values)
    bound = weak_floor(g, p)
    assert abs(weak_lp(g, p) - bound) <= bound * _WEAK_FLOOR_SLACK


@pytest.mark.parametrize("path", sorted(REPRO.glob("*.cfg")), ids=lambda path: path.stem)
def test_weak_lp_dominates_the_floor_on_the_bundled_rows(path):
    # the diverge rows at alphas 1..10: each row's weak size and quarter-cell
    # minimum, as the experiment measures them
    mapping = parse_config_text(path.read_text()) | {"alphas": "1..10"}
    cfg = _experiment_config(mapping)
    for row in divergence_experiment(cfg).rows:
        bound = row.pointwise_floor * 0.25 ** (1.0 / cfg.p)
        assert row.weak_lp_value >= bound * (1.0 - _WEAK_FLOOR_SLACK), row


def maximal_oracle(values: np.ndarray, bits: int) -> np.ndarray:
    # best |average over the rank-m cell containing x| across all ranks
    size = values.size
    best = np.zeros(size)
    for m in range(bits + 1):
        blk = 1 << m
        avg = np.abs(values.reshape(-1, blk).mean(axis=0))
        best = np.maximum(best, np.tile(avg, size // blk))
    return best


def test_maximal_function_matches_oracle():
    rng = np.random.default_rng(12)
    for bits in range(1, 11):
        r = Resolution(bits)
        for _ in range(5):
            values = rng.standard_normal(r.size)
            got = maximal_function(DyadicFunction(r, values)).values
            assert np.abs(got - maximal_oracle(values, bits)).max() < 1e-13, bits


@pytest.mark.parametrize("bits", [*range(1, 21), 22])
def test_maximal_function_is_bit_identical_to_per_rank_maxima(bits):
    r = Resolution(bits)
    rng = np.random.default_rng(bits)
    ties = rng.integers(-3, 4, r.size).astype(np.float64)  # equal maxima across ranks
    signed_zeros = np.where(ties > 0.0, -0.0, ties)
    for values in (rng.standard_normal(r.size), ties, signed_zeros, np.full(r.size, -1.5)):
        f = DyadicFunction(r, values)
        assert maximal_function(f).values.tobytes() == maximal_by_rank(f).values.tobytes()


def test_maximal_of_constant_is_its_magnitude():
    r = Resolution(4)
    got = maximal_function(DyadicFunction.constant(-2.0, r)).values
    assert np.array_equal(got, np.full(16, 2.0))


def test_maximal_dominates_mean_and_value():
    rng = np.random.default_rng(13)
    r = Resolution(6)
    values = rng.standard_normal(r.size)
    got = maximal_function(DyadicFunction(r, values)).values
    assert np.all(got >= np.abs(values) - 1e-13)  # rank N term
    assert np.all(got >= abs(values.mean()) - 1e-13)  # rank 0 term


def test_hardy_norm_of_single_block_is_its_weight():
    # one mean-zero block scaled by lam: the maximal function is a single
    # plateau of height lam * 2^(2a) * h on the rank-2a cell at 0, so the
    # divergence experiment's closed-form Hardy column a_k^(-1/2) must match
    # the measured Hardy size of every row's newest block
    from oracles import atom_block
    from walshlab import divergence_experiment
    from walshlab.cli import _experiment_config, parse_config_text

    for path in sorted(REPRO.glob("*.cfg")):
        mapping = parse_config_text(path.read_text())
        mapping["alphas"] = "1..5"
        cfg = _experiment_config(mapping)
        rows = divergence_experiment(cfg).rows
        for k, a in enumerate(cfg.alphas):
            lam = cfg.block_weight(k)
            atom = atom_block(k, cfg, Resolution(2 * a + 1))
            block = DyadicFunction(atom.resolution, lam * atom.values)
            measured = hardy_norm_estimate(block, cfg.p)
            assert type(measured) is float
            assert measured == pytest.approx(lam, rel=1e-12)
            assert rows[k].hardy_estimate == pytest.approx(measured, rel=1e-12)
