"""Utility batches under churn equal a fresh compile, bit for bit.

:class:`~repro.fluid.vectorized.VectorizedUtilities` remembers when one
closed-form family covers every slot, so churn within that family skips
the per-family regather.  These tests drive a batch through random
``append`` / ``move`` / ``pop`` / ``replace`` sequences and, after every
operation, compare ``inverse_marginal_clipped``, ``marginal`` (with and
without a leading axis), ``value``, ``curvature_alpha`` and the family flag
with a batch compiled from scratch over the same slots.  The populations
cover the all-log case, every family mixed, a replace to ``FctUtility`` and
back, pops that leave one family again, and excluded (grouped) slots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import (
    AlphaFairUtility,
    FctUtility,
    LogUtility,
    Utility,
    WeightedAlphaFairUtility,
)
from repro.fluid.vectorized import _FAM_FCT, _FAM_LOG, VectorizedUtilities


class PowerLaw(Utility):
    """``U'(x) = c * x^-a`` through ``power_law_params`` only: the generic
    power-law family, whose ``value`` is a per-flow scalar call."""

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
    "one_family_again": (["log", "fct"], ["log"], ["log"]),
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
    if n:  # an emptied batch may keep its flag: it holds vacuously
        assert churned.single_family() == reference.single_family()


@st.composite
def churn_programs(draw):
    """A population, its initial slots and a sequence of churn operations."""
    population = draw(st.sampled_from(sorted(POPULATIONS)))
    initial, appended, replacing = POPULATIONS[population]
    size = draw(st.integers(min_value=0, max_value=8))
    slots = [(draw(FAMILIES[draw(st.sampled_from(initial))]), False) for _ in range(size)]
    if population == "one_family_again" and slots:
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

    def test_the_flag_follows_the_population(self):
        batch = VectorizedUtilities([LogUtility(weight=w) for w in (1.0, 2.0, 3.0)])
        assert batch.single_family() == _FAM_LOG
        batch.append(LogUtility(weight=4.0))
        batch.move(3, 0)
        batch.pop()
        assert batch._single == _FAM_LOG and batch._batches is None  # no regather
        batch.replace(1, FctUtility(flow_size=1e4))
        assert batch.single_family() is None  # mixed: gathered
        batch.replace(1, LogUtility(weight=2.0))
        assert batch.single_family() == _FAM_LOG  # the regather re-derives it
        fct = VectorizedUtilities([FctUtility(flow_size=s) for s in (1e3, 1e5)])
        assert fct.single_family() == _FAM_FCT
        assert fct.fully_vectorized
        grouped = VectorizedUtilities([LogUtility()] * 3, exclude=frozenset(range(3)))
        assert grouped.single_family() is None
        assert grouped.value(np.ones(3)).tolist() == [0.0, 0.0, 0.0]
