"""Mosaic Flow: interface-lattice geometry, subdomain solvers and predictors."""

from .core import overlap_average
from .distributed import (
    DistributedMFPResult,
    DistributedMosaicFlowPredictor,
    HaloExchangePlan,
    RankLayout,
)
from .geometry import PHASE_OFFSETS, MosaicGeometry
from .predictor import MFPResult, MosaicFlowPredictor, initialize_lattice_field
from .solvers import FDSubdomainSolver, SDNetSubdomainSolver, SubdomainSolver

__all__ = [
    "MosaicGeometry",
    "PHASE_OFFSETS",
    "SubdomainSolver",
    "FDSubdomainSolver",
    "SDNetSubdomainSolver",
    "MosaicFlowPredictor",
    "MFPResult",
    "initialize_lattice_field",
    "DistributedMosaicFlowPredictor",
    "DistributedMFPResult",
    "HaloExchangePlan",
    "RankLayout",
    "overlap_average",
]
