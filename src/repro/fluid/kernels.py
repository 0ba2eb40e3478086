"""Optional compiled (Numba) kernels for the fluid hot loops.

The two halves of the paper-scale Fig. 5 run -- xWI's water-filling and the
persistent Oracle's fused dual objective/gradient -- are NumPy-dispatch
bound: each freezing round / dual evaluation is a handful of small matrix
products whose interpreter and dispatch overhead dominates the arithmetic.
This module provides loop-form kernels for both over CSR-style index arrays
of the link x flow incidence:

* :func:`waterfill_csr` -- the freeze-round loop of
  :func:`repro.fluid.vectorized.waterfill_arrays` with in-place masking and
  no per-round array allocation (same ``batch_ties`` semantics, same unique
  fixed point to floating-point reassociation; 1e-9 parity gates).
* :func:`fused_dual_csr` -- the dual objective, primal rates, link loads,
  residuals and dual gradient of :mod:`repro.fluid.oracle` in a single pass
  over the flow-major and link-major index arrays (1e-6 parity gate, the
  oracle's established tolerance).

Numba is strictly optional: when it is not installed (the default CI
matrix), every kernel below is a plain Python function and the public
dispatchers fall back to the NumPy reference paths with a single warning.
The pure-Python twins are the *same* function objects that get
``@njit(cache=True)``-compiled when numba is present, so the property
suites in ``tests/fluid/test_kernels.py`` exercise the exact kernel
algorithm in both environments; ``cache=True`` keeps repeat runs (and the
perf harness) from paying the compile cost more than once per machine.

Kernel selection: pass ``kernel="numpy"`` / ``"numba"`` explicitly, or
leave it unset (``None`` / ``"auto"``) to follow the ``REPRO_KERNEL``
environment variable (the CI numba leg forces ``REPRO_KERNEL=numba``).
Requesting numba without it installed resolves to NumPy -- loudly once,
silently after.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

import numpy as np

from repro.core.utility import _EPSILON

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default environment
    numba = None
    HAVE_NUMBA = False

#: Environment variable consulted when no explicit ``kernel=`` is given.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Utility family codes stored per slot by
#: :class:`repro.fluid.vectorized.VectorizedUtilities`.  Defined here (the
#: import leaf) so the jitted kernels and the NumPy evaluators share one
#: source of truth.
_EXCLUDED, _FAM_LOG, _FAM_ALPHA, _FAM_WALPHA, _FAM_FCT, _FAM_POWER, _FAM_FALLBACK = range(7)

_FALLBACK_WARNED = False


def _jit(function):
    """``numba.njit(cache=True)`` when available, the function itself otherwise."""
    if HAVE_NUMBA:  # pragma: no cover - exercised only on the CI numba leg
        return numba.njit(cache=True)(function)
    return function


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Normalize a kernel request to the backend that will actually run.

    ``None`` / ``"auto"`` defer to the :data:`KERNEL_ENV_VAR` environment
    variable (defaulting to ``"numpy"``).  A ``"numba"`` request without
    numba installed degrades to ``"numpy"`` with a single process-wide
    warning, so scripted runs keep working on machines without the
    optional dependency.
    """
    global _FALLBACK_WARNED
    if kernel is None or kernel == "auto":
        kernel = os.environ.get(KERNEL_ENV_VAR, "numpy") or "numpy"
    if kernel not in ("numpy", "numba"):
        raise ValueError(f"unknown kernel {kernel!r} (expected 'numpy' or 'numba')")
    if kernel == "numba" and not HAVE_NUMBA:
        if not _FALLBACK_WARNED:
            warnings.warn(
                "numba is not installed; falling back to the NumPy kernels "
                "(install numba to enable kernel='numba')",
                RuntimeWarning,
                stacklevel=2,
            )
            _FALLBACK_WARNED = True
        return "numpy"
    return kernel


def csr_from_path_links(
    path_links: np.ndarray, n_links: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR index arrays of the link x flow incidence, from ``path_links``.

    ``path_links`` is the sentinel-padded flows x max-hops link-index array
    of :class:`repro.fluid.vectorized.CompiledFluidNetwork` (padding index
    ``n_links``): O(nnz log nnz), no dense matrix.  Returns ``(link_ptr,
    link_cols, flow_ptr, flow_rows)``: link-major
    (``link_cols[link_ptr[l]:link_ptr[l+1]]`` are the flows on link ``l``,
    ascending) and flow-major (``flow_rows[flow_ptr[f]:flow_ptr[f+1]]`` are
    the links of flow ``f``, in ``path_links`` row order) adjacency, both as
    contiguous ``int64`` arrays -- the only structure the jitted kernels
    traverse.
    """
    real = path_links != n_links
    flow_of_hop = np.nonzero(real)[0]
    flow_rows = path_links[real].astype(np.int64)
    order = np.argsort(flow_rows, kind="stable")
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    link_ptr[1:] = np.cumsum(np.bincount(flow_rows, minlength=n_links))
    flow_ptr = np.zeros(len(path_links) + 1, dtype=np.int64)
    flow_ptr[1:] = np.cumsum(real.sum(axis=1))
    return link_ptr, flow_of_hop[order].astype(np.int64), flow_ptr, flow_rows


def _waterfill_csr_impl(
    link_ptr: np.ndarray,
    link_cols: np.ndarray,
    flow_ptr: np.ndarray,
    flow_rows: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    batch_ties: bool,
    rates: np.ndarray,
    link_level: np.ndarray,
) -> int:
    """Freeze-round water-filling over CSR adjacency (kernel body).

    Mirrors :func:`repro.fluid.vectorized.waterfill_arrays`: progressive
    filling where, under ``batch_ties``, every link whose fair share is a
    *local minimum* (no unfrozen flow on it sees a smaller share elsewhere)
    freezes in the same round at its own level; without it, one bottleneck
    link (the global argmin) freezes per round, the perf harness's
    before/after reference schedule.  All state lives in preallocated
    locals reused across rounds -- no per-round allocation.  ``rates`` is
    the output; ``link_level`` receives each link's freezing fair share
    (NaN for links that never froze) so the caller can count distinct
    levels without a set in nopython land.  Returns the round count.
    """
    n_links = link_ptr.shape[0] - 1
    n_flows = flow_ptr.shape[0] - 1
    for f in range(n_flows):
        rates[f] = 0.0
    for l in range(n_links):
        link_level[l] = np.nan
    if n_flows == 0:
        return 0
    remaining = capacities.astype(np.float64)
    live_weight = weights.astype(np.float64)
    live = np.ones(n_flows, dtype=np.bool_)
    fair_share = np.empty(n_links, dtype=np.float64)
    flow_share = np.empty(n_flows, dtype=np.float64)
    freeze = np.zeros(n_links, dtype=np.bool_)
    flows_left = n_flows
    rounds = 0
    while flows_left > 0:
        # Per-link fair share at the current working set.
        min_share = np.inf
        argmin_link = -1
        for l in range(n_links):
            w = 0.0
            for k in range(link_ptr[l], link_ptr[l + 1]):
                w += live_weight[link_cols[k]]
            if w > 0.0:
                s = remaining[l] / w
            else:
                s = np.inf
            fair_share[l] = s
            if s < min_share:
                min_share = s
                argmin_link = l
        if argmin_link < 0 or not np.isfinite(min_share):
            break  # leftover flows only cross exhausted links: rate 0
        if batch_ties:
            # Per-flow bottleneck share, then freeze each local-minimum link.
            for f in range(n_flows):
                if live[f]:
                    s = np.inf
                    for k in range(flow_ptr[f], flow_ptr[f + 1]):
                        ls = fair_share[flow_rows[k]]
                        if ls < s:
                            s = ls
                    flow_share[f] = s
            for l in range(n_links):
                ok = np.isfinite(fair_share[l])
                if ok:
                    for k in range(link_ptr[l], link_ptr[l + 1]):
                        f = link_cols[k]
                        if live[f] and flow_share[f] < fair_share[l]:
                            ok = False
                            break
                freeze[l] = ok
        else:
            for l in range(n_links):
                freeze[l] = l == argmin_link
        rounds += 1
        for l in range(n_links):
            if not freeze[l]:
                continue
            link_level[l] = fair_share[l]
            for k in range(link_ptr[l], link_ptr[l + 1]):
                f = link_cols[k]
                if not live[f]:
                    continue
                level = flow_share[f] if batch_ties else min_share
                rate = live_weight[f] * level
                rates[f] = rate
                live[f] = False
                live_weight[f] = 0.0
                flows_left -= 1
                for k2 in range(flow_ptr[f], flow_ptr[f + 1]):
                    l2 = flow_rows[k2]
                    left = remaining[l2] - rate
                    remaining[l2] = left if left > 0.0 else 0.0
        if not batch_ties:
            # The argmin link's level doubles as the round's frozen level;
            # tied links freeze in later rounds, exactly like the reference.
            link_level[argmin_link] = min_share
    return rounds


waterfill_csr_kernel = _jit(_waterfill_csr_impl)
#: The pure-Python twin, always un-jitted (the property suites compare it
#: against the NumPy reference even where numba is installed).
py_waterfill_csr = _waterfill_csr_impl


def waterfill_csr(
    link_ptr: np.ndarray,
    link_cols: np.ndarray,
    flow_ptr: np.ndarray,
    flow_rows: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    batch_ties: bool = True,
    jit: bool = True,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Allocate outputs and run the CSR waterfill kernel.

    Returns ``(rates, rounds, link_level)``; ``jit=False`` forces the
    pure-Python twin (used by the parity tests to pin the two against each
    other where numba is installed).
    """
    n_links = link_ptr.shape[0] - 1
    n_flows = flow_ptr.shape[0] - 1
    rates = np.empty(n_flows, dtype=np.float64)
    link_level = np.empty(n_links, dtype=np.float64)
    body = waterfill_csr_kernel if jit else py_waterfill_csr
    rounds = body(
        link_ptr, link_cols, flow_ptr, flow_rows,
        np.ascontiguousarray(weights, dtype=np.float64),
        np.ascontiguousarray(capacities, dtype=np.float64),
        batch_ties, rates, link_level,
    )
    return rates, int(rounds), link_level


def _fused_dual_csr_impl(
    z: np.ndarray,
    scale: np.ndarray,
    capacities: np.ndarray,
    link_ptr: np.ndarray,
    link_cols: np.ndarray,
    flow_ptr: np.ndarray,
    flow_rows: np.ndarray,
    code: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    p3: np.ndarray,
    path_caps: np.ndarray,
    floors: np.ndarray,
    inv_objective_scale: float,
    prices: np.ndarray,
    rates: np.ndarray,
    gradient: np.ndarray,
) -> float:
    """Fused dual objective + gradient over CSR adjacency (kernel body).

    One pass computing, per flow, the path price, the clipped/floored
    primal rate (Eq. (7)) and its utility value, accumulating the dual
    objective; then, per link, the load and the scaled capacity residual
    (the dual gradient).  The arithmetic mirrors the batched closures in
    :mod:`repro.fluid.oracle` family by family (including the
    ``alpha ~ 1`` log branch), so the two agree to the oracle's 1e-6
    parity gate.  Only the closed-form families (log / alpha-fair /
    weighted-alpha-fair / FCT) are supported; eligibility is checked by
    the caller.  ``prices``, ``rates`` and ``gradient`` are outputs.
    """
    n_links = z.shape[0]
    n_flows = flow_ptr.shape[0] - 1
    for l in range(n_links):
        prices[l] = scale[l] * z[l]
    acc = 0.0
    for f in range(n_flows):
        q = 0.0
        for k in range(flow_ptr[f], flow_ptr[f + 1]):
            q += prices[flow_rows[k]]
        cap = path_caps[f]
        c = code[f]
        if q <= 0.0:
            x = cap
        else:
            qe = q if q > _EPSILON else _EPSILON
            if c == _FAM_LOG:
                inv = p0[f] / qe
            elif c == _FAM_ALPHA:
                inv = qe ** p1[f]
            elif c == _FAM_WALPHA:
                inv = p0[f] * qe ** p3[f]
            else:  # _FAM_FCT
                inv = (p0[f] * qe) ** p2[f]
            x = inv if inv < cap else cap
        if x < floors[f]:
            x = floors[f]
        rates[f] = x
        xe = x if x > _EPSILON else _EPSILON
        if c == _FAM_LOG:
            u = p0[f] * np.log(xe)
        elif c == _FAM_ALPHA:
            a = p0[f]
            if abs(a - 1.0) <= 1e-9:  # np.isclose(a, 1.0, rtol=1e-9, atol=0)
                u = np.log(xe)
            else:
                u = xe ** (1.0 - a) / (1.0 - a)
        elif c == _FAM_WALPHA:
            a = p2[f]
            if abs(a - 1.0) <= 1e-9:
                u = p1[f] * np.log(xe)
            else:
                u = p1[f] * xe ** (1.0 - a) / (1.0 - a)
        else:  # _FAM_FCT
            u = xe ** (1.0 - p1[f]) / (p0[f] * (1.0 - p1[f]))
        acc += u - x * q
    value = 0.0
    for l in range(n_links):
        load = 0.0
        for k in range(link_ptr[l], link_ptr[l + 1]):
            load += rates[link_cols[k]]
        gradient[l] = scale[l] * (capacities[l] - load) * inv_objective_scale
        value += prices[l] * capacities[l]
    return (value + acc) * inv_objective_scale


fused_dual_csr_kernel = _jit(_fused_dual_csr_impl)
#: Pure-Python twin of the fused dual kernel (see :data:`py_waterfill_csr`).
py_fused_dual_csr = _fused_dual_csr_impl
