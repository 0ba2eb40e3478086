"""NUMFabric (SIGCOMM 2016) reproduction.

The package is organized into layers:

``repro.core``
    The paper's primary contribution: utility functions (Table 1), bandwidth
    functions (BwE-style), the Swift rate-control state machine and the xWI
    weight/price update rules shared by the fluid and packet-level engines.

``repro.sim``
    A from-scratch discrete-event, packet-level network simulator (the ns-3
    stand-in): event engine, links, output-queued switches with pluggable
    queueing disciplines, ECMP routing, hosts and monitors.

``repro.transports``
    Packet-level end-host protocols and the matching switch hooks:
    NUMFabric, DGD, RCP*, DCTCP and pFabric.

``repro.fluid``
    Iteration-level (fluid) models and solvers: weighted max-min
    water-filling, the NUM Oracle, and fluid DGD / RCP* / xWI dynamics.

``repro.workloads``
    Flow-size distributions (web-search, enterprise), Poisson arrival
    generators, the semi-dynamic scenario and permutation traffic.

``repro.analysis``
    Convergence-time extraction, deviation-from-ideal and FCT statistics.

``repro.experiments``
    Harnesses that regenerate every table and figure of the paper's
    evaluation section.
"""

import os

# One BLAS thread unless the caller chose otherwise, set before the first
# import below loads numpy: with a thread per core beside one busy process,
# the Oracle's dense Newton solves ran ~30x slower.  Forked sweep workers and
# agents inherit it.  Plain calls, not a loop: ruff's E402 exempts only those.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LogUtility,
    Utility,
    WeightedAlphaFairUtility,
)
from repro.core.bandwidth_function import BandwidthFunction, PiecewiseLinearBandwidthFunction
from repro.core.config import DgdParameters, NumFabricParameters, RcpStarParameters
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.oracle import solve_num
from repro.fluid.network import FluidNetwork, FluidFlow

__all__ = [
    "Utility",
    "AlphaFairUtility",
    "WeightedAlphaFairUtility",
    "LogUtility",
    "FctUtility",
    "BandwidthFunctionUtility",
    "BandwidthFunction",
    "PiecewiseLinearBandwidthFunction",
    "NumFabricParameters",
    "DgdParameters",
    "RcpStarParameters",
    "weighted_max_min",
    "solve_num",
    "FluidNetwork",
    "FluidFlow",
]

__version__ = "0.1.0"
