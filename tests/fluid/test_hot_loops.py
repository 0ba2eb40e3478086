"""Edge cases and properties of the fluid model's two hot loops.

Water-filling (:func:`repro.fluid.vectorized.waterfill_arrays`) and the
Oracle's scaled NUM dual (:class:`repro.fluid.oracle._DualProblem`) each
have one NumPy implementation.  The parity suites pin both to dict / dense
references on generated networks; this module adds what those do not
reach:

* **Water-filling** on bare instances (no compiled network): zero and
  all-zero capacities, single flows, empty flow sets, the round accounting
  of the batched schedule against the dense one-bottleneck-per-round
  reference (``_maxmin_reference``), the dict entry point and the
  homogeneity of the allocation in capacities and weights (1e-9).
* **The dual** as a function: its gradient is the derivative of its value
  (central differences), it is convex, and at zero prices every flow sits
  at its path capacity; the power-law rows agree with the scalar utility
  methods, scalar (bandwidth-function) slots included.
* The ``kernels`` placeholder the end-to-end benchmark child still reads.
"""

import random

import numpy as np
import pytest
from _maxmin_reference import dense_waterfill, path_links_of, scalar_max_min
from hypothesis import given, settings, strategies as st

from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction
from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.fluid import kernels, oracle
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.vectorized import compile_network, waterfill_arrays

seeds = st.integers(min_value=0, max_value=2**32 - 1)
TOLERANCE = 1e-9


# -- the placeholder module ---------------------------------------------------


def test_kernels_placeholder_reports_nothing_compiled():
    assert kernels.HAVE_NUMBA is False
    assert [name for name in vars(kernels) if not name.startswith("_")] == ["HAVE_NUMBA"]


# -- water-filling ------------------------------------------------------------


def _random_waterfill_instance(seed, n_links, n_flows, zero_cap, tie_heavy):
    rng = np.random.RandomState(seed)
    incidence = rng.rand(n_links, n_flows) < 0.45
    for j in range(n_flows):
        if not incidence[:, j].any():
            incidence[rng.randint(n_links), j] = True
    if tie_heavy:
        # Many identical capacities: exact tie groups at one level.
        capacities = np.full(n_links, 10.0)
    else:
        capacities = rng.uniform(1.0, 100.0, n_links)
    if zero_cap:
        capacities[rng.randint(n_links)] = 0.0
    weights = rng.uniform(0.1, 10.0, n_flows)
    return incidence, weights, capacities


def _waterfill(incidence, weights, capacities, dense=False, stats=None):
    """The production water-fill on the instance, or with ``dense`` the
    one-bottleneck-per-round reference."""
    if dense:
        return dense_waterfill(incidence, weights, capacities, stats)
    return waterfill_arrays(path_links_of(incidence), weights, capacities, stats)


def _scalar_waterfill(incidence, weights, capacities):
    """The dict reference on the same instance, as a vector in flow order."""
    n_links, n_flows = incidence.shape
    paths = {j: tuple(np.nonzero(incidence[:, j])[0].tolist()) for j in range(n_flows)}
    scalar = scalar_max_min(
        dict(enumerate(weights.tolist())), paths, dict(enumerate(capacities.tolist()))
    )
    return np.array([scalar[j] for j in range(n_flows)])


def _assert_close(got, want, scale):
    np.testing.assert_allclose(got, want, rtol=TOLERANCE, atol=TOLERANCE * scale)


class TestWaterfillEdgeCases:
    @given(
        seed=seeds,
        n_links=st.integers(min_value=1, max_value=6),
        n_flows=st.integers(min_value=1, max_value=9),
        dense=st.booleans(),
        zero_cap=st.booleans(),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_dense_instances_match_the_scalar_reference(
        self, seed, n_links, n_flows, dense, zero_cap, tie_heavy
    ):
        incidence, weights, capacities = _random_waterfill_instance(
            seed, n_links, n_flows, zero_cap, tie_heavy
        )
        stats = {}
        rates = _waterfill(incidence, weights, capacities, dense=dense, stats=stats)
        scale = float(capacities.max(initial=1.0))
        _assert_close(rates, _scalar_waterfill(incidence, weights, capacities), scale)
        assert 1 <= stats["rounds"] and stats["levels"] <= n_links
        # Feasible on every link, to the same tolerance.
        assert np.all(incidence.astype(float) @ rates <= capacities + TOLERANCE * scale)

    def test_single_flow_single_link(self):
        incidence = np.ones((1, 1), dtype=bool)
        for dense in (False, True):
            stats = {}
            rates = _waterfill(
                incidence, np.array([2.0]), np.array([5.0]), dense=dense, stats=stats
            )
            assert rates.tolist() == [5.0]
            assert stats == {"rounds": 1, "levels": 1}

    def test_empty_flow_set_on_both_schedules(self):
        incidence = np.zeros((3, 0), dtype=bool)
        for dense in (False, True):
            stats = {}
            rates = _waterfill(
                incidence, np.zeros(0), np.array([1.0, 2.0, 3.0]),
                dense=dense, stats=stats,
            )
            assert rates.size == 0
            assert stats == {"rounds": 0, "levels": 0}

    def test_all_links_zero_capacity(self):
        incidence = np.ones((2, 3), dtype=bool)
        for dense in (False, True):
            rates = _waterfill(incidence, np.ones(3), np.zeros(2), dense=dense)
            assert rates.tolist() == [0.0, 0.0, 0.0]

    def test_a_failed_link_starves_only_its_own_flows(self):
        # Flow 0 crosses the failed link; flows 1 and 2 split link 1 by weight.
        incidence = np.array([[True, False, False], [True, True, True]])
        for dense in (False, True):
            rates = _waterfill(
                incidence, np.array([1.0, 1.0, 3.0]), np.array([0.0, 8.0]),
                dense=dense,
            )
            _assert_close(rates, np.array([0.0, 2.0, 6.0]), 8.0)

    def test_tie_heavy_batched_rounds_collapse(self):
        """Eight identical edge links freeze together in one batched round."""
        n = 8
        incidence = np.eye(n, dtype=bool)
        batched, single = {}, {}
        rates = _waterfill(incidence, np.ones(n), np.full(n, 4.0), stats=batched)
        _waterfill(incidence, np.ones(n), np.full(n, 4.0), dense=True, stats=single)
        assert rates.tolist() == [4.0] * n
        assert batched == {"rounds": 1, "levels": 1}
        assert single["rounds"] == n

    def test_independent_regions_freeze_in_one_round_at_their_own_levels(self):
        # Two disconnected links, two flows each, at shares 1 and 3.
        incidence = np.array([[True, True, False, False], [False, False, True, True]])
        stats = {}
        rates = _waterfill(incidence, np.ones(4), np.array([2.0, 6.0]), stats=stats)
        assert rates.tolist() == [1.0, 1.0, 3.0, 3.0]
        assert stats == {"rounds": 1, "levels": 2}

    def test_parking_lot_needs_one_round_per_dependency_level(self):
        # The long flow crosses both links and is bottlenecked on the
        # narrow one; the short flow on the wide link can only freeze after
        # it, at the capacity the long flow leaves behind.
        incidence = np.array([[True, True, False], [True, False, True]])
        stats = {}
        rates = _waterfill(incidence, np.ones(3), np.array([2.0, 10.0]), stats=stats)
        _assert_close(rates, np.array([1.0, 1.0, 9.0]), 10.0)
        assert stats == {"rounds": 2, "levels": 2}

    def test_path_links_alone_need_no_dense_incidence(self):
        """The padded link indices are the whole instance: widening them with
        sentinel columns changes no bit, and the order of a flow's hops
        changes nothing beyond rounding."""
        incidence, weights, capacities = _random_waterfill_instance(
            11, n_links=6, n_flows=9, zero_cap=True, tie_heavy=False
        )
        path_links = path_links_of(incidence)
        rates = waterfill_arrays(path_links, weights, capacities)
        sentinel = np.full((len(path_links), 2), incidence.shape[0], dtype=np.intp)
        widened = np.hstack((path_links, sentinel))
        assert np.array_equal(waterfill_arrays(widened, weights, capacities), rates)
        reordered = np.array([[*sorted(row[row < incidence.shape[0]], reverse=True),
                               *row[row == incidence.shape[0]]] for row in path_links],
                             dtype=np.intp)
        scale = float(capacities.max())
        _assert_close(waterfill_arrays(reordered, weights, capacities), rates, scale)
        _assert_close(rates, dense_waterfill(incidence, weights, capacities), scale)

    def test_the_dict_entry_point_runs_the_same_water_fill(self):
        incidence, weights, capacities = _random_waterfill_instance(
            11, n_links=6, n_flows=9, zero_cap=True, tie_heavy=False
        )
        arrays = _waterfill(incidence, weights, capacities)
        paths = {j: np.nonzero(incidence[:, j])[0].tolist() for j in range(incidence.shape[1])}
        by_dict = weighted_max_min(
            dict(enumerate(weights.tolist())), paths, dict(enumerate(capacities.tolist()))
        )
        assert np.array_equal(np.array([by_dict[j] for j in range(len(paths))]), arrays)

    @given(
        seed=seeds,
        n_links=st.integers(min_value=1, max_value=6),
        n_flows=st.integers(min_value=1, max_value=9),
        factor=st.sampled_from([0.25, 3.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rates_scale_with_capacities_and_ignore_a_common_weight_factor(
        self, seed, n_links, n_flows, factor
    ):
        incidence, weights, capacities = _random_waterfill_instance(
            seed, n_links, n_flows, zero_cap=False, tie_heavy=False
        )
        rates = _waterfill(incidence, weights, capacities)
        scale = float(capacities.max()) * factor
        _assert_close(_waterfill(incidence, weights, capacities * factor), rates * factor, scale)
        _assert_close(_waterfill(incidence, weights * factor, capacities), rates, scale)


# -- the Oracle dual ----------------------------------------------------------


def _random_utility(rng):
    kind = rng.randint(4)
    if kind == 0:
        return LogUtility(weight=float(rng.uniform(0.5, 4.0)))
    if kind == 1:
        # Include alpha exactly 1.0 sometimes: the log-branch of the value.
        alpha = 1.0 if rng.rand() < 0.25 else float(rng.uniform(0.5, 3.0))
        return AlphaFairUtility(alpha=alpha)
    if kind == 2:
        alpha = 1.0 if rng.rand() < 0.25 else float(rng.uniform(0.5, 3.0))
        return WeightedAlphaFairUtility(weight=float(rng.uniform(0.5, 4.0)), alpha=alpha)
    return FctUtility(flow_size=float(rng.uniform(1e4, 1e7)))


def _random_fluid_network(seed, n_flows):
    rng = np.random.RandomState(seed)
    links = [f"l{i}" for i in range(4)]
    network = FluidNetwork({link: float(rng.uniform(1e9, 10e9)) for link in links})
    for fid in range(n_flows):
        k = rng.randint(1, 4)
        path = tuple(links[i] for i in rng.choice(4, size=k, replace=False))
        network.add_flow(FluidFlow(fid, path, _random_utility(rng)))
    return network


def _bound_problem(network, seed):
    problem = oracle._DualProblem(compile_network(network))
    rng = np.random.RandomState(seed ^ 0x5EED)
    scale_vec = rng.uniform(0.5, 2.0, problem.capacities.size) / problem.capacities
    problem.bind(scale_vec)
    return problem, rng


class TestDualFunction:
    @given(seed=seeds, n_flows=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_gradient_is_the_derivative_of_the_value(self, seed, n_flows):
        problem, rng = _bound_problem(_random_fluid_network(seed, n_flows), seed)
        n_active = problem.capacities.size
        z = rng.uniform(0.2, 2.0, n_active)
        _, gradient = problem.dual_and_gradient(z)
        gradient = gradient.copy()
        steps = 1e-6 * np.maximum(z, 1.0)
        numeric = np.empty(n_active)
        for link in range(n_active):
            step = np.zeros(n_active)
            step[link] = steps[link]
            upper, _ = problem.dual_and_gradient(z + step)
            lower, _ = problem.dual_and_gradient(z - step)
            numeric[link] = (upper - lower) / (2.0 * steps[link])
        scale = max(float(np.max(np.abs(gradient))), 1.0)
        np.testing.assert_allclose(numeric, gradient, rtol=1e-4, atol=1e-4 * scale)

    @given(seed=seeds, n_flows=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_value_is_convex_along_a_chord(self, seed, n_flows):
        problem, rng = _bound_problem(_random_fluid_network(seed, n_flows), seed)
        n_active = problem.capacities.size
        a, b = rng.uniform(0.0, 2.0, n_active), rng.uniform(0.0, 2.0, n_active)
        value_a, _ = problem.dual_and_gradient(a)
        value_b, _ = problem.dual_and_gradient(b)
        value_mid, _ = problem.dual_and_gradient(0.5 * (a + b))
        chord = 0.5 * (value_a + value_b)
        assert value_mid <= chord + 1e-9 * max(abs(chord), 1.0)

    def test_zero_prices_put_every_flow_at_its_path_capacity(self):
        network = _random_fluid_network(3, 10)
        problem, _ = _bound_problem(network, 3)
        rates, path_prices = problem.primal_rates(np.zeros(problem.capacities.size))
        assert path_prices.tolist() == [0.0] * len(network.flows)
        assert np.array_equal(rates, problem.path_caps)
        assert [network.path_capacity(flow_id) for flow_id in problem.compiled.flow_ids] == (
            rates.tolist()
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFamilyBatches:
    def _mixed_utilities(self):
        bandwidth = BandwidthFunctionUtility(
            PiecewiseLinearBandwidthFunction([(0.0, 0.0), (2.0, 6e9), (4.0, 8e9)])
        )
        rng = np.random.RandomState(9)
        utilities = [_random_utility(rng) for _ in range(8)]
        return [bandwidth, LogUtility(weight=2.0)] + utilities

    def test_rows_mark_scalar_and_power_law_slots(self):
        utilities = self._mixed_utilities()
        network = FluidNetwork({"l": 10e9})
        for fid, utility in enumerate(utilities):
            network.add_flow(FluidFlow(fid, ("l",), utility))
        vec_utils = compile_network(network).vec_utils
        n = vec_utils.n
        assert not vec_utils.fully_vectorized
        assert vec_utils._scalar == {0}  # only the bandwidth function
        log_rows = vec_utils._log[:n].tolist()
        c, a, one_minus_a = vec_utils._rows[:, :n].tolist()
        assert (c[0], a[0], one_minus_a[0]) == (0.0, 1.0, 1.0)  # no power law
        assert (c[1], a[1], one_minus_a[1], log_rows[1]) == (2.0, 1.0, 1.0, True)  # w = 2 log
        for i, utility in enumerate(utilities[2:], start=2):
            assert (c[i], a[i]) == utility.power_law_params()
            assert log_rows[i] == (a[i] == 1.0)  # the draw's alphas are 1.0 or far from it
            assert one_minus_a[i] == (1.0 if log_rows[i] else 1.0 - a[i])
        assert vec_utils._power == {i for i in range(n) if a[i] != 1.0}

    def test_batched_evaluation_matches_the_scalar_methods(self):
        utilities = self._mixed_utilities()
        network = FluidNetwork({"l": 10e9})
        for fid, utility in enumerate(utilities):
            network.add_flow(FluidFlow(fid, ("l",), utility))
        compiled = compile_network(network)
        by_id = dict(enumerate(utilities))
        ordered = [by_id[flow_id] for flow_id in compiled.flow_ids]
        rng = random.Random(4)
        rates = np.array([rng.uniform(1e6, 5e9) for _ in ordered])
        prices = np.array([rng.uniform(1e-12, 1e-8) for _ in ordered])
        caps = np.full(len(ordered), 10e9)
        values = compiled.vec_utils.value(rates)
        inverse = compiled.vec_utils.inverse_marginal_clipped(prices, caps)
        for i, utility in enumerate(ordered):
            assert values[i] == pytest.approx(utility.value(float(rates[i])), rel=1e-12)
            assert inverse[i] == pytest.approx(
                utility.inverse_marginal_clipped(float(prices[i]), 10e9), rel=1e-12
            )
