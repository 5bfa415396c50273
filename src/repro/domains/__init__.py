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
  truth on the composite grid,
* :func:`sharded_assemble` — load-balanced (anchor-count, not block)
  distributed dense assembly for irregular anchor sets.
"""

from ..mosaic.domain import CompositeDomain
from .geometry import CompositeMosaicGeometry
from .reference import composite_reference_solution
from .sharded import sharded_assemble

__all__ = [
    "CompositeDomain",
    "CompositeMosaicGeometry",
    "composite_reference_solution",
    "sharded_assemble",
]
