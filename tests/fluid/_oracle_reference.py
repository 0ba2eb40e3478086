"""The external Oracle reference: scipy L-BFGS-B on the same scaled dual.

Every single-path solve in ``repro`` minimises the dual with the in-repo
SPG loop, so agreement between two of them says little about either.  The
tight Oracle gates (1e-6 rates, 1e-8 objective) compare against this
instead: the dual assembled by ``_DualProblem``, started where
``solve_num`` starts (``z = 0.5``) and minimised by an external
quasi-Newton code at ``ftol = 1e-14``.  At scipy's default ``ftol`` the
reference would stop up to ~1e-4 away from its own tight solution on
multi-link instances, measuring scipy's stopping slack instead of the
solver under test.
"""

import numpy as np
from scipy import optimize

from repro.fluid.oracle import OracleResult, _DualProblem, _scale_medians
from repro.fluid.vectorized import compile_network


def cold_lbfgsb(
    network, tolerance: float = 1e-14, max_iterations: int = 20000
) -> OracleResult:
    """A tightly converged, unsafeguarded cold solve with scipy L-BFGS-B."""
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return problem.idle_result(network)
    problem.bind(_scale_medians(compiled)[1])
    n_links = problem.active_idx.size
    minimised = optimize.minimize(
        problem.dual_and_gradient,
        np.full(n_links, 0.5),
        jac=True,
        bounds=[(0.0, None)] * n_links,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-12},
    )
    return problem.result(
        network, problem.prices(minimised.x), minimised, False, max_iterations, tolerance
    )
