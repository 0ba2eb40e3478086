"""Iteration-level (fluid) models: solvers and control-loop dynamics.

One fluid iteration corresponds to one price/rate-update interval of the
corresponding distributed protocol (about two RTTs for NUMFabric, one RTT
for DGD and RCP*), so iteration counts translate directly into wall-clock
convergence times via the paper's update intervals.
"""

from repro.fluid.network import FluidFlow, FluidNetwork, FlowGroup
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.vectorized import CompiledFluidNetwork, VectorizedUtilities, compile_network
from repro.fluid.oracle import (
    OracleCertificate,
    PersistentDualSolver,
    certify,
    solve_num,
)
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.xwi import XwiFluidSimulator
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.convergence import convergence_iterations, ConvergenceCriterion, ConvergenceJudge

__all__ = [
    "FluidFlow",
    "FluidNetwork",
    "FlowGroup",
    "weighted_max_min",
    "CompiledFluidNetwork",
    "VectorizedUtilities",
    "compile_network",
    "OracleCertificate",
    "PersistentDualSolver",
    "certify",
    "solve_num",
    "DgdFluidSimulator",
    "RcpStarFluidSimulator",
    "XwiFluidSimulator",
    "DctcpFluidSimulator",
    "convergence_iterations",
    "ConvergenceCriterion",
    "ConvergenceJudge",
]
