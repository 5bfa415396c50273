"""``CompositeMosaicGeometry``: a constructor of the one geometry class.

It returns a :class:`~repro.mosaic.geometry.MosaicGeometry`, so a rectangular
composite equals the plain rectangle geometry and shares its plan and group.
"""

from __future__ import annotations

from ..mosaic.domain import CompositeDomain
from ..mosaic.geometry import MosaicGeometry

__all__ = ["CompositeMosaicGeometry"]


class CompositeMosaicGeometry:
    """``CompositeMosaicGeometry(points, extent, domain)`` is ``MosaicGeometry.from_domain``."""

    def __new__(cls, subdomain_points: int, subdomain_extent: float,
                domain: CompositeDomain) -> MosaicGeometry:
        return MosaicGeometry.from_domain(domain, subdomain_points, subdomain_extent)

    from_domain = staticmethod(MosaicGeometry.from_domain)
