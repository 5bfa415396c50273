"""Distributed runtime: MPI-like communicators, process grids and cost models."""

from .cartesian import (
    BlockPartition,
    ProcessGrid,
    block_range,
    choose_grid_dims,
    morton_encode,
)
from .comm import CommunicationTrace, Communicator, ReduceOp, payload_bytes
from .costmodel import INTERCONNECTS, AlphaBetaModel, estimate_trace_time
from .processes import PipeCommunicator, fork_spmd
from .simulated import SelfCommunicator, SpmdFailure, ThreadCommunicator, run_spmd

__all__ = [
    "Communicator",
    "CommunicationTrace",
    "ReduceOp",
    "payload_bytes",
    "SelfCommunicator",
    "ThreadCommunicator",
    "run_spmd",
    "SpmdFailure",
    "PipeCommunicator",
    "fork_spmd",
    "ProcessGrid",
    "BlockPartition",
    "block_range",
    "choose_grid_dims",
    "morton_encode",
    "AlphaBetaModel",
    "INTERCONNECTS",
    "estimate_trace_time",
]
