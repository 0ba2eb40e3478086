"""Utility functions for NUM-based bandwidth allocation (Table 1 of the paper).

Every allocation objective supported by NUMFabric is expressed as a per-flow
utility function ``U(x)`` of the flow's rate ``x``.  The distributed
algorithms only ever need three operations on a utility:

* ``value(x)``            -- the utility itself (used by the Oracle),
* ``marginal(x)``         -- the marginal utility ``U'(x)``,
* ``inverse_marginal(q)`` -- ``U'^{-1}(q)``, i.e. the rate at which the
  marginal utility equals a given path price ``q`` (Eq. (3) of DGD and
  Eq. (7) of xWI).

All utilities here are smooth, increasing and strictly concave on
``x > 0`` (the paper's assumption), so ``marginal`` is strictly decreasing
and ``inverse_marginal`` is well defined for ``q > 0``.

``marginal``, ``inverse_marginal`` and ``inverse_marginal_clipped`` are
*array-aware*: they accept either a Python float (returning a float, the
original scalar semantics) or a NumPy array (returning an array, computed
elementwise with the same clamping rules) -- handy for evaluating one
utility over many rates at once (sweeps, benchmarks, plotting).  Note the
fluid engine (:mod:`repro.fluid.vectorized`) batches *across flows*
instead, because each flow carries its own utility instance: every
utility with a :meth:`Utility.power_law_params` is one row of
coefficients and exponents, and the batch evaluates the marginal, its
inverse and the value from those rows alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only used for type checking
    from repro.core.bandwidth_function import BandwidthFunction

# Rates and prices of zero appear transiently in the distributed algorithms
# (e.g. a freshly started flow has no rate estimate yet).  We clamp inputs to
# a tiny positive floor so marginal utilities stay finite instead of raising.
# The floor must sit far below any physically meaningful price: optimal link
# prices can be as small as ~1e-19 (alpha = 2 at tens of Gbit/s), and a floor
# above that silently distorts the allocation.
_EPSILON = 1e-30


def _floored(x):
    """Clamp a float or array to the ``_EPSILON`` floor (array-aware).

    Both branches propagate NaN (``max``/``np.maximum`` return the NaN
    operand), so an upstream bug fails loudly instead of being clamped
    into a plausible-looking huge marginal.
    """
    if isinstance(x, np.ndarray):
        return np.maximum(x, _EPSILON)
    return max(x, _EPSILON)


class Utility(ABC):
    """Abstract base class for concave utility functions."""

    @abstractmethod
    def value(self, rate: float) -> float:
        """Return ``U(rate)``."""

    @abstractmethod
    def marginal(self, rate: float) -> float:
        """Return the marginal utility ``U'(rate)`` (float or elementwise array)."""

    @abstractmethod
    def inverse_marginal(self, price: float) -> float:
        """Return the rate ``x`` such that ``U'(x) == price`` (array-aware)."""

    def power_law_params(self) -> Optional[Tuple[float, float]]:
        """``(coefficient, exponent)`` when ``U'(x) = coefficient * x^(-exponent)``.

        The fluid engine batches flows with a positive exponent ``a`` and
        coefficient ``c`` into single array operations and evaluates them
        from ``(c, a)`` alone, without calling this object's methods: the
        marginal as ``c * x^-a``, the inverse as ``(c / q)^(1/a)`` and the
        value as ``c * x^(1-a) / (1-a)`` (``c * log x`` when
        ``math.isclose(a, 1)``), so a subclass's ``value`` should equal that
        formula.  Utilities
        that are not of this form (or whose inverse marginal is undefined)
        return ``None`` and are evaluated by per-flow calls to their own
        methods.
        """
        return None

    def inverse_marginal_clipped(self, price: float, max_rate: float) -> float:
        """``inverse_marginal`` clipped to ``(0, max_rate]``.

        The clip is what a real sender does: a flow can never use more than
        the capacity of its narrowest link, so an arbitrarily small path
        price must not translate into an unbounded rate or weight.
        """
        if isinstance(price, np.ndarray):
            nonpositive = price <= 0.0
            max_rate = np.broadcast_to(np.asarray(max_rate, dtype=float), price.shape)
            if nonpositive.all():
                return max_rate.copy()
            inverse = self.inverse_marginal(np.where(nonpositive, _EPSILON, price))
            return np.where(nonpositive, max_rate, np.minimum(inverse, max_rate))
        if price <= 0.0:
            return max_rate
        return min(self.inverse_marginal(price), max_rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class AlphaFairUtility(Utility):
    """The alpha-fair family (Mo & Walrand): ``U(x) = x^(1-a) / (1-a)``.

    ``alpha = 0`` maximizes throughput, ``alpha = 1`` is proportional
    fairness (``log x`` in the limit), and ``alpha -> inf`` approaches
    max-min fairness.
    """

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def value(self, rate: float) -> float:
        rate = max(rate, _EPSILON)
        if math.isclose(self.alpha, 1.0):
            return math.log(rate)
        return rate ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def marginal(self, rate: float) -> float:
        rate = _floored(rate)
        return rate ** (-self.alpha)

    def inverse_marginal(self, price: float) -> float:
        if self.alpha == 0.0:
            raise ValueError(
                "alpha = 0 (pure throughput) has a constant marginal utility; "
                "its inverse is not defined"
            )
        price = _floored(price)
        return price ** (-1.0 / self.alpha)

    def power_law_params(self) -> Optional[Tuple[float, float]]:
        if self.alpha == 0.0:
            return None
        return (1.0, self.alpha)

    def __repr__(self) -> str:
        return f"AlphaFairUtility(alpha={self.alpha})"


class WeightedAlphaFairUtility(Utility):
    """Weighted alpha-fairness: ``U(x) = w^a * x^(1-a) / (1-a)``.

    The weight ``w`` expresses a relative priority: at the optimum of a
    single shared link, rates are proportional to the weights.
    """

    def __init__(self, weight: float, alpha: float = 1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.weight = float(weight)
        self.alpha = float(alpha)

    def value(self, rate: float) -> float:
        rate = max(rate, _EPSILON)
        scale = self.weight ** self.alpha
        if math.isclose(self.alpha, 1.0):
            return scale * math.log(rate)
        return scale * rate ** (1.0 - self.alpha) / (1.0 - self.alpha)

    def marginal(self, rate: float) -> float:
        rate = _floored(rate)
        return (self.weight ** self.alpha) * rate ** (-self.alpha)

    def inverse_marginal(self, price: float) -> float:
        price = _floored(price)
        return self.weight * price ** (-1.0 / self.alpha)

    def power_law_params(self) -> Optional[Tuple[float, float]]:
        return (self.weight ** self.alpha, self.alpha)

    def __repr__(self) -> str:
        return f"WeightedAlphaFairUtility(weight={self.weight}, alpha={self.alpha})"


class LogUtility(WeightedAlphaFairUtility):
    """Proportional fairness: ``U(x) = w * log(x)`` (alpha-fair with a = 1)."""

    def __init__(self, weight: float = 1.0):
        super().__init__(weight=weight, alpha=1.0)

    def value(self, rate: float) -> float:
        return self.weight * math.log(max(rate, _EPSILON))

    def marginal(self, rate: float) -> float:
        return self.weight / _floored(rate)

    def inverse_marginal(self, price: float) -> float:
        return self.weight / _floored(price)

    def __repr__(self) -> str:
        return f"LogUtility(weight={self.weight})"


class LinearUtility(Utility):
    """``U(x) = w * x`` -- the (non-strictly-concave) FCT objective of Table 1.

    The marginal utility is constant so ``inverse_marginal`` is undefined;
    practical deployments use :class:`FctUtility` (the ``x^(1-eps)/s``
    smoothing suggested in the paper's footnote 2).  This class exists for
    the Oracle, which can still optimize linear objectives directly.
    """

    def __init__(self, weight: float = 1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weight = float(weight)

    def value(self, rate: float) -> float:
        return self.weight * rate

    def marginal(self, rate: float) -> float:
        if isinstance(rate, np.ndarray):
            return np.full(rate.shape, self.weight)
        return self.weight

    def inverse_marginal(self, price: float) -> float:
        raise ValueError(
            "LinearUtility has a constant marginal utility; use FctUtility "
            "(the smoothed variant) for distributed algorithms"
        )

    def __repr__(self) -> str:
        return f"LinearUtility(weight={self.weight})"


class FctUtility(Utility):
    """FCT-minimizing utility: ``U(x) = x^(1-eps) / (s * (1-eps))``.

    ``s`` is the flow size (or remaining size for SRPT-style allocation) and
    ``eps`` a small constant (the paper uses 0.125) that keeps the utility
    strictly concave.  The allocation approximates Shortest-Flow-First.
    """

    def __init__(self, flow_size: float, epsilon: float = 0.125):
        if flow_size <= 0:
            raise ValueError(f"flow_size must be positive, got {flow_size}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.flow_size = float(flow_size)
        self.epsilon = float(epsilon)

    def value(self, rate: float) -> float:
        rate = max(rate, _EPSILON)
        return rate ** (1.0 - self.epsilon) / (self.flow_size * (1.0 - self.epsilon))

    def marginal(self, rate: float) -> float:
        rate = _floored(rate)
        return rate ** (-self.epsilon) / self.flow_size

    def inverse_marginal(self, price: float) -> float:
        price = _floored(price)
        return (self.flow_size * price) ** (-1.0 / self.epsilon)

    def power_law_params(self) -> Optional[Tuple[float, float]]:
        return (1.0 / self.flow_size, self.epsilon)

    def __repr__(self) -> str:
        return f"FctUtility(flow_size={self.flow_size}, epsilon={self.epsilon})"


class BandwidthFunctionUtility(Utility):
    """Utility derived from a BwE-style bandwidth function (Eq. (2)).

    ``U(x) = integral_0^x F(t)^(-a) dt`` where ``F = B^{-1}`` maps an
    allocated bandwidth back to its fair share.  For large ``a`` the NUM
    optimum approaches the allocation prescribed by the bandwidth functions
    themselves (max-min in fair share); the paper finds ``a ~= 5`` is a very
    good approximation.
    """

    def __init__(self, bandwidth_function: "BandwidthFunction", alpha: float = 5.0):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.bandwidth_function = bandwidth_function
        self.alpha = float(alpha)

    def value(self, rate: float) -> float:
        return self.bandwidth_function.integral_inverse_power(max(rate, 0.0), self.alpha)

    def marginal(self, rate: float) -> float:
        if isinstance(rate, np.ndarray):
            return np.array([self.marginal(float(r)) for r in rate])
        fair_share = self.bandwidth_function.inverse(max(rate, _EPSILON))
        return max(fair_share, _EPSILON) ** (-self.alpha)

    def inverse_marginal(self, price: float) -> float:
        if isinstance(price, np.ndarray):
            return np.array([self.inverse_marginal(float(q)) for q in price])
        price = max(price, _EPSILON)
        fair_share = price ** (-1.0 / self.alpha)
        return self.bandwidth_function(fair_share)

    def __repr__(self) -> str:
        return (
            f"BandwidthFunctionUtility(bandwidth_function={self.bandwidth_function!r}, "
            f"alpha={self.alpha})"
        )
