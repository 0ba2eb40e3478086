"""The certificate as the Oracle's gate, on networks nobody picked by hand.

Hypothesis draws networks shaped like the anchor's finding-2 draw: 2-8
links of 1, 3, 10 or 40 Gb/s and 2-12 flows on 1-3 of them, each flow's
utility a power law (log, alpha = 0.5, alpha = 2, weighted alpha = 2,
FCT).  Half the draws pool: they add 1-3 groups of 1-3 sub-flows each,
each group's utility (applied to its aggregate) drawn from the same
power laws.  Every answer must certify and be feasible at 1e-9, and
:func:`certify` must read the same certificate from outside on the point
it was computed on.  The check is the solver's own termination
condition, not a second solve.

Pooled draws the Newton solve is known not to certify are pinned below
(:data:`KNOWN_UNCERTIFIED`) as strict expected failures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility, WeightedAlphaFairUtility
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.oracle import _MIN_RATE_FRACTION, certify, solve_num

CAPACITIES = (1e9, 3e9, 10e9, 40e9)
WEIGHTS = (0.5, 1.0, 2.0, 4.0)

power_laws = st.one_of(
    st.sampled_from(WEIGHTS).map(LogUtility),
    st.sampled_from((0.5, 2.0)).map(lambda alpha: AlphaFairUtility(alpha=alpha)),
    st.sampled_from(WEIGHTS).map(lambda weight: WeightedAlphaFairUtility(weight, 2.0)),
    st.sampled_from((1e4, 1e6, 1e8)).map(lambda size: FctUtility(flow_size=size)),
)


@st.composite
def finding_two_networks(draw):
    links = [f"l{i}" for i in range(draw(st.integers(2, 8)))]
    capacities = draw(st.lists(st.sampled_from(CAPACITIES), min_size=len(links),
                               max_size=len(links)))
    network = FluidNetwork(dict(zip(links, capacities)))

    def path():
        hops = draw(st.integers(1, min(3, len(links))))
        return tuple(draw(st.permutations(links))[:hops])

    for flow_id in range(draw(st.integers(2, 12))):
        network.add_flow(FluidFlow(flow_id, path(), draw(power_laws)))
    for group in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        network.add_group(FlowGroup(("g", group), draw(power_laws)))
        for member in range(draw(st.integers(1, 3))):
            network.add_flow(FluidFlow(("g", group, member), path(), LogUtility(),
                                       group_id=("g", group)))
    return network


def certified_point(network, result):
    """The rates ``result.certificate`` was computed on, before the rescale.

    A single-path answer's is the dual's primal point at its prices, flow
    by flow: ``U'^-1(q)`` clipped to ``[floor, path cap]``.  A pooled
    answer's is the Newton step's own interior point, which is what
    ``result.rates`` hands out.
    """
    if network.groups:
        return result.rates
    point = {}
    for flow in network.flows:
        cap = network.path_capacity(flow.flow_id)
        q = sum(result.prices[link] for link in flow.path)
        rate = cap if q <= 0.0 else min(flow.utility.inverse_marginal(q), cap)
        point[flow.flow_id] = max(rate, cap * _MIN_RATE_FRACTION)
    return point


@settings(max_examples=200, deadline=None, derandomize=True)
@given(network=finding_two_networks())
def test_every_answer_certifies(network):
    result = solve_num(network)
    assert result.converged, result.certificate
    assert network.is_feasible(result.rates, tolerance=1e-9)
    # From outside, the same residuals: the KKT terms on the point the
    # Oracle certified, the gap on the objective of the rates it hands out.
    point = certified_point(network, result)
    at_point = certify(network, point, result.prices)
    for term in ("overload", "stationarity", "slackness"):
        assert getattr(at_point, term) == pytest.approx(
            getattr(result.certificate, term), rel=1e-6, abs=1e-12
        ), term
    handed_out = certify(network, result.rates, result.prices)
    assert handed_out.gap == pytest.approx(result.certificate.gap, rel=1e-6, abs=1e-12)
    # The rescale onto the capacity region divides each flow by at most
    # 1 + overload, so the handed-out rates are the certified point's.
    bound = 1.0 + result.certificate.overload
    for flow_id, rate in result.rates.items():
        assert point[flow_id] / bound * (1.0 - 1e-12) <= rate <= point[flow_id] * (1.0 + 1e-12)


def _pooled(capacities_gbps, flows, groups):
    network = FluidNetwork({link: gbps * 1e9 for link, gbps in capacities_gbps.items()})
    for flow_id, path, utility in flows:
        network.add_flow(FluidFlow(flow_id, path, utility))
    for group_id, utility, members in groups:
        network.add_group(FlowGroup(group_id, utility))
        for member_id, path in members:
            network.add_flow(FluidFlow(member_id, path, LogUtility(), group_id=group_id))
    return network


def _fct(size):
    return FctUtility(flow_size=size)


#: Pooled draws of the same shape that the Newton solve does not certify,
#: each with its measured worst term: about 1 % of mixed-family pooled
#: draws (5 of 600 random draws of this shape on two seeds).  Each has an FCT
#: (``epsilon = 0.125``) utility squeezing alpha = 2 flows by orders of
#: magnitude next to a multi-member group, and the solve stalls with prices
#: and floor multipliers climbing together.  Strict: a fix turns them red.
KNOWN_UNCERTIFIED = {
    # worst term 1.0 after 61 steps
    "fct_beside_three_member_group": _pooled(
        {"l0": 3, "l1": 40, "l2": 40, "l3": 1, "l4": 3, "l5": 1},
        [(0, ("l5", "l0"), _fct(1e6)), (1, ("l3",), AlphaFairUtility(alpha=2.0)),
         (2, ("l4",), AlphaFairUtility(alpha=2.0)), (3, ("l1", "l0", "l2"), _fct(1e4))],
        [("g0", WeightedAlphaFairUtility(0.5, 2.0),
          [("m0", ("l1", "l5")), ("m1", ("l3", "l0")), ("m2", ("l2", "l1"))])],
    ),
    # worst term 0.375 after 129 steps
    "eight_flows_and_three_member_group": _pooled(
        {"l0": 1, "l1": 10, "l2": 3, "l3": 3, "l4": 1, "l5": 1, "l6": 10, "l7": 40},
        [(0, ("l7", "l2", "l0"), LogUtility()),
         (1, ("l0", "l5", "l7"), AlphaFairUtility(alpha=2.0)),
         (2, ("l7", "l1"), WeightedAlphaFairUtility(4.0, 2.0)),
         (3, ("l5", "l7", "l2"), WeightedAlphaFairUtility(4.0, 2.0)),
         (4, ("l7", "l4", "l6"), _fct(1e6)), (5, ("l1", "l6"), AlphaFairUtility(alpha=0.5)),
         (6, ("l1", "l2", "l6"), AlphaFairUtility(alpha=0.5)), (7, ("l2", "l5", "l1"), _fct(1e8))],
        [("g0", WeightedAlphaFairUtility(4.0, 2.0),
          [("m0", ("l5", "l2", "l0")), ("m1", ("l2", "l0")), ("m2", ("l0", "l6"))])],
    ),
    # worst term 1.0 after 121 steps
    "fct_group_and_three_groups": _pooled(
        {"l0": 40, "l1": 10, "l2": 40, "l3": 10, "l4": 1, "l5": 10, "l6": 40},
        [(0, ("l6", "l2", "l1"), AlphaFairUtility(alpha=0.5)),
         (1, ("l4",), AlphaFairUtility(alpha=2.0)),
         (2, ("l0", "l2", "l3"), WeightedAlphaFairUtility(2.0, 2.0)),
         (3, ("l3", "l4", "l1"), _fct(1e8)), (4, ("l1", "l3"), AlphaFairUtility(alpha=2.0)),
         (5, ("l5", "l1"), AlphaFairUtility(alpha=2.0)),
         (6, ("l1", "l6"), WeightedAlphaFairUtility(0.5, 2.0))],
        [("g0", WeightedAlphaFairUtility(4.0, 2.0), [("m00", ("l2",))]),
         ("g1", _fct(1e4), [("m10", ("l3", "l2"))]),
         ("g2", AlphaFairUtility(alpha=2.0),
          [("m20", ("l0",)), ("m21", ("l4", "l0", "l3")), ("m22", ("l1", "l5"))])],
    ),
}


@pytest.mark.xfail(strict=True, reason="the pooled Newton solve stalls on these (ROADMAP 1(d))")
@pytest.mark.parametrize("name", sorted(KNOWN_UNCERTIFIED))
def test_known_uncertified_pooled_draws(name):
    network = KNOWN_UNCERTIFIED[name]
    result = solve_num(network)
    assert network.is_feasible(result.rates, tolerance=1e-9)
    assert result.converged, result.certificate
