"""Utility batches under churn equal a fresh compile, bit for bit.

:class:`~repro.fluid.vectorized.VectorizedUtilities` keeps one power-law
row per slot (``c``, ``a``, ``1 - a`` and the log mask) plus the sets of
scalar and ``a != 1`` slots, edits them in place on churn and rebuilds its
cached layout -- whether every row has ``a == 1``, and the scalar slots --
on the next evaluation.  These tests drive a batch through random
``append`` / ``move`` / ``pop`` / ``replace`` sequences and, after every
operation, compare the rows, ``inverse_marginal_clipped``, ``marginal``
(with and without a leading axis), ``value``, ``curvature_alpha`` and the
layout with a batch compiled from scratch over the same slots.  The
populations cover the all-log case, every family mixed, a replace to
``FctUtility`` and back, pops that leave all-log rows again, and excluded
(grouped) slots.  On an all-log batch the rows reproduce
:class:`LogUtility`'s own bits, which is what keeps the all-log runs'
outputs unchanged.  A divide-by-zero or overflow warning fails these
tests: excluded and scalar rows (``c = 0``) must evaluate cleanly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import (
    _EPSILON,
    AlphaFairUtility,
    FctUtility,
    LogUtility,
    Utility,
    WeightedAlphaFairUtility,
)
from repro.fluid.vectorized import VectorizedUtilities

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class PowerLaw(Utility):
    """``U'(x) = c * x^-a`` through ``power_law_params`` only: a custom
    power law, batched -- its value included -- from ``(c, a)`` alone."""

    def __init__(self, c: float, a: float):
        self.c, self.a = c, a

    def value(self, rate):
        return self.c * max(rate, 1e-30) ** (1.0 - self.a) / (1.0 - self.a)

    def marginal(self, rate):
        return self.c * max(rate, 1e-30) ** (-self.a)

    def inverse_marginal(self, price):
        return (max(price, 1e-30) / self.c) ** (-1.0 / self.a)

    def power_law_params(self):
        return (self.c, self.a)


class Opaque(Utility):
    """A log utility the batches cannot see into: the per-flow fallback."""

    def __init__(self, weight: float):
        self.weight = weight

    def value(self, rate):
        return self.weight * np.log(max(rate, 1e-30))

    def marginal(self, rate):
        return self.weight / max(rate, 1e-30)

    def inverse_marginal(self, price):
        return self.weight / max(price, 1e-30)


FAMILIES = {
    "log": st.sampled_from([0.5, 1.0, 3.0]).map(lambda w: LogUtility(weight=w)),
    "alpha": st.sampled_from([0.5, 1.0, 2.0]).map(lambda a: AlphaFairUtility(alpha=a)),
    "walpha": st.tuples(st.sampled_from([1.0, 2.0]), st.sampled_from([1.0, 2.0])).map(
        lambda wa: WeightedAlphaFairUtility(weight=wa[0], alpha=wa[1])
    ),
    "fct": st.sampled_from([1e3, 1e6]).map(lambda s: FctUtility(flow_size=s)),
    "power": st.sampled_from([0.5, 2.0]).map(lambda a: PowerLaw(c=3.0, a=a)),
    "fallback": st.sampled_from([1.0, 2.0]).map(Opaque),
}

#: population -> (families of the initial slots, of appends, of replaces)
POPULATIONS = {
    "all_log": (["log"], ["log"], ["log"]),
    "mixed": (list(FAMILIES), list(FAMILIES), list(FAMILIES)),
    "fct_and_back": (["log"], ["log"], ["fct", "log"]),
    "all_log_again": (["log", "fct"], ["log"], ["log"]),
    "excluded": (["log"], ["log", "fct"], ["log"]),
}

PRICES = [-1.0, 0.0, 1e-12, 0.25, 3.0]
RATES = [0.0, 1e-3, 1.0, 1e3, 1e9]


def bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.uint64).tolist()


def fresh(slots):
    """A from-scratch compile of the model's slots."""
    return VectorizedUtilities(
        [utility for utility, _ in slots],
        exclude=frozenset(j for j, (_, excluded) in enumerate(slots) if excluded),
    )


def assert_same_bits(churned, slots):
    reference = fresh(slots)
    n = len(slots)
    assert churned.n == n
    rng = np.random.default_rng(n)
    prices = rng.choice(PRICES, n)
    max_rates = rng.choice([1.0, 1e9], n)
    rates = rng.choice(RATES, n)
    grid = rng.choice(RATES, (3, n))
    assert bits(churned.inverse_marginal_clipped(prices, max_rates)) == bits(
        reference.inverse_marginal_clipped(prices, max_rates)
    )
    assert bits(churned.marginal(rates)) == bits(reference.marginal(rates))
    assert bits(churned.marginal(grid)) == bits(reference.marginal(grid))
    assert bits(churned.marginal(grid.T.copy().T)) == bits(reference.marginal(grid))
    assert bits(churned.value(rates)) == bits(reference.value(rates))
    assert bits(churned.curvature_alpha) == bits(reference.curvature_alpha)
    assert bits(churned._rows[:, :n]) == bits(reference._rows[:, :n])
    assert churned._log[:n].tolist() == reference._log[:n].tolist()
    assert (churned._scalar, churned._power) == (reference._scalar, reference._power)
    assert churned._layout[:2] == reference._layout[:2]


@st.composite
def churn_programs(draw):
    """A population, its initial slots and a sequence of churn operations."""
    population = draw(st.sampled_from(sorted(POPULATIONS)))
    initial, appended, replacing = POPULATIONS[population]
    size = draw(st.integers(min_value=0, max_value=8))
    slots = [(draw(FAMILIES[draw(st.sampled_from(initial))]), False) for _ in range(size)]
    if population == "all_log_again" and slots:
        slots[-1] = (FctUtility(flow_size=5e4), False)  # popped first: log again
    if population == "excluded":
        slots = [(utility, True) for utility, _ in slots]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(["append", "move", "pop", "replace", "remove"]))
        if kind == "append":
            ops.append(("append", draw(FAMILIES[draw(st.sampled_from(appended))])))
        elif kind == "replace":
            ops.append(("replace", draw(st.integers(0, 63)),
                        draw(FAMILIES[draw(st.sampled_from(replacing))])))
        else:
            ops.append((kind, draw(st.integers(0, 63)), draw(st.integers(0, 63))))
    return population, slots, ops


class TestChurnedBatchesMatchAFreshCompile:
    @settings(max_examples=200, deadline=None)
    @given(program=churn_programs())
    def test_every_operation(self, program):
        _, slots, ops = program
        churned = fresh(slots)
        assert_same_bits(churned, slots)
        for op in ops:
            n = len(slots)
            if op[0] == "append":
                churned.append(op[1])
                slots.append((op[1], False))
            elif not n:
                continue
            elif op[0] == "replace":
                slot = op[1] % n
                churned.replace(slot, op[2])
                slots[slot] = (op[2], False)
            elif op[0] == "move":
                src, dst = op[1] % n, op[2] % n
                churned.move(src, dst)
                slots[dst] = slots[src]
            elif op[0] == "pop":
                churned.pop()
                slots.pop()
            else:  # a compiled snapshot's swap-remove
                slot = op[1] % n
                if slot != n - 1:
                    churned.move(n - 1, slot)
                    slots[slot] = slots[n - 1]
                churned.pop()
                slots.pop()
            assert_same_bits(churned, slots)

    def test_the_all_log_layout_follows_the_population(self):
        batch = VectorizedUtilities([LogUtility(weight=w) for w in (1.0, 2.0, 3.0)])

        def layout():
            batch.value(np.ones(batch.n))
            return batch._layout[:2]

        assert layout() == (True, [])
        batch.append(LogUtility(weight=4.0))
        assert batch._layout is None  # every edit drops the layout
        batch.move(3, 0)
        batch.pop()
        assert layout() == (True, [])
        batch.replace(1, FctUtility(flow_size=1e4))  # into FCT by replace ...
        assert layout() == (False, [])
        batch.replace(1, LogUtility(weight=2.0))  # ... and out of it
        assert layout() == (True, [])
        batch.append(FctUtility(flow_size=1e5))  # into FCT by append ...
        assert layout() == (False, [])
        batch.pop()  # ... out by pop
        assert layout() == (True, [])
        batch.append(FctUtility(flow_size=1e5))
        batch.move(3, 0)  # two FCT slots now
        assert layout() == (False, [])
        batch.move(1, 0)
        batch.pop()  # out by a swap-remove
        assert layout() == (True, [])
        fct = VectorizedUtilities([FctUtility(flow_size=s) for s in (1e3, 1e5)])
        assert fct.fully_vectorized
        assert fct._bind()[:2] == (False, [])
        grouped = VectorizedUtilities([LogUtility()] * 3, exclude=frozenset(range(3)))
        assert grouped._rows[0, :3].tolist() == [0.0, 0.0, 0.0]
        assert grouped.value(np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_a_custom_power_law_is_valued_by_the_formula(self):
        """``value`` of a power-law row is ``c * x^(1-a) / (1-a)``, and
        ``c * log x`` at ``a ~ 1`` -- never the class's own ``value``."""
        shapes = [(3.0, 0.5), (3.0, 2.0), (2.0, 1.0), (2.0, 1.0 + 1e-12)]
        batch = VectorizedUtilities([PowerLaw(c, a) for c, a in shapes])
        rates = np.array([0.0, 1e-3, 2.5, 1e9])
        values = batch.value(rates).tolist()
        for (c, a), rate, value in zip(shapes, rates.tolist(), values):
            x = max(rate, _EPSILON)
            want = c * math.log(x) if math.isclose(a, 1.0) else c * x ** (1.0 - a) / (1.0 - a)
            assert value == pytest.approx(want, rel=1e-14)
        assert batch.curvature_alpha.tolist() == [a for _, a in shapes]


class TestAllLogBits:
    WEIGHTS = [0.5, 2.0, 3.0, 7.25, 1e-3, 1e3, 0.1]
    PRICES = [-1.0, 0.0, 1e-40, _EPSILON, 2.5e-10, 3.0, 1e-3]
    RATES = [0.0, 1e-40, _EPSILON, 1e-3, 1e9, 7.0, 3.3e8]
    MAX_RATES = [1e9, 5.0, 1e12, 1e12, 1e12, 1e-3, 1e12]

    def test_rows_reproduce_log_utility_bits(self):
        """Every route through an all-log batch -- the methods, ``kernels()``
        and, in a batch with an FCT row, the general ``**`` expressions at
        ``a = 1`` -- gives :class:`LogUtility`'s marginal and clipped inverse
        bit for bit, at non-positive prices, zero rates and the ``_EPSILON``
        floor.  ``value`` is ``weight * log``: the routes agree bit for bit,
        and with the scalar method up to the last bit, where NumPy's ``log``
        may round differently from :func:`math.log`."""
        utilities = [LogUtility(weight=w) for w in self.WEIGHTS]
        prices, rates = np.array(self.PRICES), np.array(self.RATES)
        max_rates = np.array(self.MAX_RATES)
        want_marginal = [u.marginal(r) for u, r in zip(utilities, self.RATES)]
        want_inverse = [
            u.inverse_marginal_clipped(q, m)
            for u, q, m in zip(utilities, self.PRICES, self.MAX_RATES)
        ]
        all_log = VectorizedUtilities(utilities)
        inverse, value = all_log.kernels()
        assert all_log._layout[:2] == (True, [])
        mixed = VectorizedUtilities(utilities + [FctUtility(flow_size=1e6)])
        assert mixed._bind()[:2] == (False, [])
        n = len(utilities)

        def general(method, *args):
            return getattr(mixed, method)(*(np.append(arg, 1.0) for arg in args))[:n]

        for got in (all_log.marginal(rates), general("marginal", rates)):
            assert bits(got) == bits(want_marginal)
        for got in (
            all_log.inverse_marginal_clipped(prices, max_rates),
            inverse(prices, max_rates),
            general("inverse_marginal_clipped", prices, max_rates),
        ):
            assert bits(got) == bits(want_inverse)
        values = all_log.value(rates)
        assert bits(value(rates)) == bits(values)
        assert bits(general("value", rates)) == bits(values)
        for u, rate, got in zip(utilities, self.RATES, values.tolist()):
            assert got == pytest.approx(u.value(rate), rel=1e-15, abs=0.0)
