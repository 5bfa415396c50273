"""Composite (non-rectangular) target domains for Mosaic Flow.

The transferable-subdomain design of the paper makes inference on unseen,
larger *and irregular* geometries possible; this package collects the
irregular part:

* :class:`CompositeDomain` — the shape: a validated union of axis-aligned
  rectangles on the half-subdomain step lattice (L-shapes, T-shapes,
  plus-shapes, notched plates, staircases), defined in
  :mod:`repro.mosaic.domain`,
* :class:`CompositeMosaicGeometry` — a constructor of the one geometry class,
  :class:`~repro.mosaic.MosaicGeometry`, from such a shape; the predictor,
  the serving layer and the dense assembly see no other geometry type,
* :func:`composite_reference_solution` — the masked finite-difference ground
  truth on the composite grid.

Composite geometries are solved and served by the single-process lattice
iteration; :class:`~repro.mosaic.DistributedMosaicFlowPredictor` partitions
rectangles only.
"""

from ..mosaic.domain import CompositeDomain
from .geometry import CompositeMosaicGeometry
from .reference import composite_reference_solution

__all__ = [
    "CompositeDomain",
    "CompositeMosaicGeometry",
    "composite_reference_solution",
]
