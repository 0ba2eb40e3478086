"""Tests for :mod:`repro.fluid.kernels`: probe, fallback, and NumPy parity.

Three layers, per the compiled-kernel contract:

* **Probe/fallback** -- ``HAVE_NUMBA`` is an importable boolean; without
  numba a ``kernel="numba"`` request resolves to ``"numpy"`` with exactly
  one process-wide warning and the dispatchers return *bit-identical*
  results to an explicit ``kernel="numpy"`` call (they run the same code).
* **Property parity** -- the kernel algorithms (exercised through their
  pure-Python twins, the same function objects that get jitted when numba
  is installed) match the NumPy reference paths on randomized and
  degenerate instances: zero-capacity links, tie-heavy capacities,
  single-flow networks, empty flow sets (waterfill, 1e-9), and mixed
  closed-form utility populations (fused dual, 1e-6).
* **Inner-solver grid** -- warm churned SPG solves match a tightly
  converged cold scipy solve to the oracle's 1e-6 rate gate (this leg also
  runs under ``REPRO_KERNEL=numba`` in the numba CI job).
"""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.utility import (
    AlphaFairUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.fluid import kernels, oracle
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import PersistentDualSolver, solve_num
from repro.fluid.vectorized import compile_network, waterfill_arrays
from repro.fluid.xwi import XwiFluidSimulator

from _dense_reference import build_csr

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- probe / fallback ---------------------------------------------------------


class TestProbeAndFallback:
    def test_have_numba_is_a_bool(self):
        assert isinstance(kernels.HAVE_NUMBA, bool)

    def test_explicit_backends_resolve_to_themselves(self):
        assert kernels.resolve_kernel("numpy") == "numpy"
        if kernels.HAVE_NUMBA:
            assert kernels.resolve_kernel("numba") == "numba"

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        assert kernels.resolve_kernel(None) == "numpy"
        assert kernels.resolve_kernel("auto") == "numpy"
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR)
        assert kernels.resolve_kernel(None) == "numpy"
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "fortran")
        with pytest.raises(ValueError):
            kernels.resolve_kernel(None)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernels.resolve_kernel("cuda")

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_numba_request_warns_once_then_degrades_silently(self):
        saved = kernels._FALLBACK_WARNED
        try:
            kernels._FALLBACK_WARNED = False
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert kernels.resolve_kernel("numba") == "numpy"
                assert kernels.resolve_kernel("numba") == "numpy"
            runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert len(runtime) == 1
            assert "numba" in str(runtime[0].message)
        finally:
            kernels._FALLBACK_WARNED = saved

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_fallback_waterfill_is_bit_identical_to_numpy(self):
        incidence, weights, capacities = _random_waterfill_instance(
            7, n_links=5, n_flows=8, zero_cap=True, tie_heavy=False
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            requested = waterfill_arrays(
                incidence, incidence.astype(float), weights, capacities, kernel="numba"
            )
        reference = waterfill_arrays(
            incidence, incidence.astype(float), weights, capacities, kernel="numpy"
        )
        assert np.array_equal(requested, reference)

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_fallback_simulator_and_solver_select_numpy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            simulator = XwiFluidSimulator(
                FluidNetwork.single_link(1e9, 2), backend="vectorized", kernel="numba"
            )
            solver = PersistentDualSolver(kernel="numba")
        assert simulator.kernel == "numpy"
        assert solver.kernel == "numpy"


# -- waterfill kernel parity --------------------------------------------------


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


def _assert_waterfill_parity(incidence, weights, capacities, batch_ties):
    expected_stats: dict = {}
    expected = waterfill_arrays(
        incidence, incidence.astype(float), weights, capacities,
        batch_ties=batch_ties, stats=expected_stats,
    )
    rates, rounds, link_level = kernels.waterfill_csr(
        *build_csr(incidence), weights, capacities,
        batch_ties=batch_ties, jit=False,
    )
    scale = float(capacities.max(initial=1.0))
    np.testing.assert_allclose(rates, expected, rtol=1e-9, atol=1e-9 * scale)
    assert rounds >= 1 or not weights.size
    # Distinct frozen levels match the NumPy accounting (round counts may
    # differ: the kernel uses the wave schedule at every fabric size).
    frozen = link_level[np.isfinite(link_level)]
    assert int(np.unique(frozen).size) == expected_stats["levels"]


class TestWaterfillKernelParity:
    @given(
        seed=seeds,
        n_links=st.integers(min_value=1, max_value=6),
        n_flows=st.integers(min_value=1, max_value=9),
        batch_ties=st.booleans(),
        zero_cap=st.booleans(),
        tie_heavy=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_on_random_instances(
        self, seed, n_links, n_flows, batch_ties, zero_cap, tie_heavy
    ):
        incidence, weights, capacities = _random_waterfill_instance(
            seed, n_links, n_flows, zero_cap, tie_heavy
        )
        _assert_waterfill_parity(incidence, weights, capacities, batch_ties)

    def test_single_flow_single_link(self):
        incidence = np.ones((1, 1), dtype=bool)
        _assert_waterfill_parity(incidence, np.array([2.0]), np.array([5.0]), True)

    def test_empty_flow_set(self):
        incidence = np.zeros((3, 0), dtype=bool)
        weights = np.zeros(0)
        capacities = np.array([1.0, 2.0, 3.0])
        rates, rounds, link_level = kernels.waterfill_csr(
            *build_csr(incidence), weights, capacities, jit=False
        )
        assert rates.size == 0 and rounds == 0
        assert np.all(np.isnan(link_level))

    def test_all_links_zero_capacity(self):
        incidence = np.ones((2, 3), dtype=bool)
        rates, _, _ = kernels.waterfill_csr(
            *build_csr(incidence),
            np.ones(3), np.zeros(2), jit=False,
        )
        expected = waterfill_arrays(
            incidence, incidence.astype(float), np.ones(3), np.zeros(2)
        )
        np.testing.assert_allclose(rates, expected, atol=1e-12)

    def test_tie_heavy_batched_rounds_collapse(self):
        """Eight identical edge links freeze together under batch_ties."""
        n = 8
        incidence = np.eye(n, dtype=bool)
        _, rounds_batched, _ = kernels.waterfill_csr(
            *build_csr(incidence), np.ones(n), np.full(n, 4.0),
            batch_ties=True, jit=False,
        )
        _, rounds_single, _ = kernels.waterfill_csr(
            *build_csr(incidence), np.ones(n), np.full(n, 4.0),
            batch_ties=False, jit=False,
        )
        assert rounds_batched == 1
        assert rounds_single == n

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="jitted twin needs numba")
    def test_jitted_and_python_twins_agree(self):  # pragma: no cover
        incidence, weights, capacities = _random_waterfill_instance(
            3, n_links=6, n_flows=9, zero_cap=True, tie_heavy=False
        )
        csr = build_csr(incidence)
        jit = kernels.waterfill_csr(*csr, weights, capacities, jit=True)
        twin = kernels.waterfill_csr(*csr, weights, capacities, jit=False)
        assert np.array_equal(jit[0], twin[0]) and jit[1] == twin[1]


# -- fused dual kernel parity -------------------------------------------------


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


def _dual_closure_pair(network, rng):
    """(numpy_closure, twin_closure) over the same compiled active links."""
    compiled = compile_network(network)
    vec_utils = compiled.vec_utils
    caps_all = compiled.capacities_vector()
    active = compiled.incidence.any(axis=1) & (caps_all > 0.0)
    incidence = compiled.incidence[active]
    incidence_f = compiled.incidence_f[active]
    capacities = caps_all[active]
    path_caps = compiled.path_capacities()
    floors = path_caps * oracle._MIN_RATE_FRACTION
    scale_vec = 1.0 / capacities * rng.uniform(0.5, 2.0, capacities.size)
    objective_scale = float(np.max(capacities) * np.median(scale_vec))

    def numpy_closure(z):
        prices = scale_vec * z
        path_prices = incidence_f.T @ prices
        rates = np.maximum(
            vec_utils.inverse_marginal_clipped(path_prices, path_caps), floors
        )
        value = float(
            prices @ capacities + vec_utils.value(rates).sum() - rates @ path_prices
        )
        gradient = scale_vec * (capacities - incidence_f @ rates)
        return value / objective_scale, gradient / objective_scale

    family = vec_utils.kernel_family_arrays()
    assert family is not None  # the generator only draws closed-form utilities
    link_ptr, link_cols, flow_ptr, flow_rows = build_csr(incidence)
    code = np.ascontiguousarray(family[0])
    p0, p1, p2, p3 = (np.ascontiguousarray(row) for row in family[1:])
    n_links, n_flows = incidence.shape
    prices_buf, rates_buf = np.empty(n_links), np.empty(n_flows)

    def twin_closure(z):
        gradient = np.empty(n_links)
        value = kernels.py_fused_dual_csr(
            np.ascontiguousarray(z), scale_vec, capacities,
            link_ptr, link_cols, flow_ptr, flow_rows,
            code, p0, p1, p2, p3,
            np.ascontiguousarray(path_caps), np.ascontiguousarray(floors),
            1.0 / objective_scale, prices_buf, rates_buf, gradient,
        )
        return float(value), gradient

    return numpy_closure, twin_closure, capacities.size


class TestFusedDualKernelParity:
    @given(seed=seeds, n_flows=st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_matches_numpy_closure(self, seed, n_flows):
        rng = np.random.RandomState(seed ^ 0x5EED)
        network = _random_fluid_network(seed, n_flows)
        numpy_closure, twin_closure, n_active = _dual_closure_pair(network, rng)
        for z in (
            np.zeros(n_active),  # boundary: every price clipped to the cap
            rng.uniform(0.0, 2.0, n_active),
            rng.uniform(0.0, 2.0, n_active) * (rng.rand(n_active) < 0.5),
        ):
            value_np, grad_np = numpy_closure(z)
            value_tw, grad_tw = twin_closure(z)
            ref = max(abs(value_np), 1.0)
            assert abs(value_tw - value_np) <= 1e-6 * ref
            np.testing.assert_allclose(
                grad_tw, grad_np, rtol=1e-6,
                atol=1e-6 * max(float(np.max(np.abs(grad_np), initial=0.0)), 1e-12),
            )

    def test_eligibility_excludes_noncompiled_utilities(self):
        from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction
        from repro.core.utility import BandwidthFunctionUtility

        network = FluidNetwork({"l": 1e9})
        network.add_flow(
            FluidFlow(
                0, ("l",),
                BandwidthFunctionUtility(
                    PiecewiseLinearBandwidthFunction([(0.0, 0.0), (1e9, 1.0)])
                ),
            )
        )
        compiled = compile_network(network)
        assert compiled.vec_utils.kernel_family_arrays() is None


# -- inner-solver parity grid -------------------------------------------------


def _churn_network(seed=5, n_flows=40):
    """Multi-bottleneck log-utility fabric: the rate-gate parity regime.

    Mixed alpha-fair populations land in the flat-dual regime where even a
    cold scipy solve cannot pin the rate vector (see ``_FLAT_DUAL_CASES``
    in ``test_oracle.py``); the inner-solver grid therefore runs on the
    log-utility fabric where the 1e-6 rate gate is meaningful.  Family
    coverage for the compiled dual lives in
    :class:`TestFusedDualKernelParity` above.
    """
    rng = random.Random(seed)
    capacities = {f"leaf{i}": 10e9 for i in range(6)}
    capacities.update({f"spine{i}": 40e9 for i in range(3)})
    network = FluidNetwork(capacities)
    for fid in range(n_flows):
        src, dst = rng.sample(range(6), 2)
        path = (f"leaf{src}", f"spine{rng.randrange(3)}", f"leaf{dst}")
        network.add_flow(
            FluidFlow(fid, path, LogUtility(weight=rng.uniform(0.5, 4.0)))
        )
    return network


def _max_rel_rate_diff(reference, other):
    return max(
        abs(other[fid] - rate) / max(abs(rate), 1e-12)
        for fid, rate in reference.items()
    )


def _cold_scipy(network):
    return solve_num(network, tolerance=1e-14, max_iterations=20000, safeguard=False)


class TestInnerSolverParityGrid:
    """Warm churned SPG solves vs tightly converged cold scipy."""

    def test_churn_trace_matches_cold_scipy(self):
        network = _churn_network()
        solver = PersistentDualSolver()
        flows = list(network.flows)
        trace = [("remove", f) for f in flows[: len(flows) // 2]]
        trace += [("add", f) for _, f in list(trace)]
        for op, flow in trace:
            if op == "remove":
                network.remove_flow(flow.flow_id)
            else:
                network.add_flow(flow)
            warm = solver.solve(network)
            cold = _cold_scipy(network)
            assert network.is_feasible(warm.rates, tolerance=1e-6)
            assert _max_rel_rate_diff(cold.rates, warm.rates) <= 1e-6
