"""Mosaic interface-lattice geometry."""

import pickle

import numpy as np
import pytest

from repro.mosaic import PHASE_OFFSETS, MosaicGeometry
from repro.mosaic.domain import CompositeDomain


class TestConstruction:
    def test_derived_sizes(self):
        geo = MosaicGeometry(subdomain_points=33, subdomain_extent=0.5, steps_x=8, steps_y=4)
        assert geo.half == 16
        assert geo.global_nx == 8 * 16 + 1
        assert geo.global_ny == 4 * 16 + 1
        assert geo.global_extent == (2.0, 1.0)
        assert geo.anchor_rows == 3 and geo.anchor_cols == 7
        assert geo.num_subdomains == 21
        assert geo.spacing == pytest.approx(0.5 / 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            MosaicGeometry(subdomain_points=32, subdomain_extent=0.5, steps_x=4, steps_y=4)
        with pytest.raises(ValueError):
            MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=1, steps_y=4)
        with pytest.raises(ValueError):
            MosaicGeometry(subdomain_points=9, subdomain_extent=-1.0, steps_x=4, steps_y=4)

    def test_from_domain_size(self):
        geo = MosaicGeometry.from_domain_size((2.0, 2.0), subdomain_points=33, subdomain_extent=0.5)
        assert geo.steps_x == 8 and geo.steps_y == 8
        with pytest.raises(ValueError):
            MosaicGeometry.from_domain_size((2.1, 2.0), subdomain_points=33)

    def test_from_domain_size_too_small_raises_clearly(self):
        # a domain smaller than one subdomain must fail with an actionable
        # message, not a misleading "not a multiple" error (or an empty
        # anchor list downstream)
        with pytest.raises(ValueError, match="too small for a single"):
            MosaicGeometry.from_domain_size((0.2, 2.0), subdomain_extent=0.5)
        with pytest.raises(ValueError, match="too small for a single"):
            MosaicGeometry.from_domain_size((2.0, 0.25), subdomain_extent=0.5)
        with pytest.raises(ValueError, match="positive"):
            MosaicGeometry.from_domain_size((0.0, 2.0))

    def test_half_subdomain_domain_names_anchor_requirement(self):
        # 0.25 x 2.0 with 0.5 subdomains -> steps (1, 8): no anchor fits
        with pytest.raises(ValueError, match="anchor"):
            MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=1, steps_y=8)

    def test_scaled(self):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=2, steps_y=2)
        big = geo.scaled(4)
        assert big.steps_x == 8 and big.num_subdomains == 49
        with pytest.raises(ValueError):
            geo.scaled(0)

    def test_grids_share_spacing(self, small_geometry):
        assert small_geometry.global_grid().hx == pytest.approx(
            small_geometry.subdomain_grid().hx
        )


    def test_hash_is_the_field_hash_computed_once(self, monkeypatch):
        domain_hashes = []
        field_hash = CompositeDomain.__hash__
        monkeypatch.setattr(CompositeDomain, "__hash__",
                            lambda domain: domain_hashes.append(1) or field_hash(domain))
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        first = hash(geo)
        assert hash(geo) == hash({geo: 0}.popitem()[0]) == first
        assert len(domain_hashes) == 1
        # The value the generated dataclass hash returns; a pickle carries
        # the fields only and the copy hashes again, to the same value.
        assert first == hash((9, 0.5, 6, 4, geo.domain))
        twin = pickle.loads(pickle.dumps(geo))
        assert "_hash" not in vars(twin) and hash(twin) == first and twin == geo


class TestAnchorsAndPhases:
    def test_anchor_count(self, small_geometry):
        anchors = small_geometry.anchors()
        assert len(anchors) == small_geometry.num_subdomains
        assert (0, 0) in anchors

    def test_phases_partition_all_anchors(self, small_geometry):
        union = []
        for phase in range(len(PHASE_OFFSETS)):
            union.extend(small_geometry.anchors_for_phase(phase))
        assert sorted(union) == sorted(small_geometry.anchors())
        # phases are disjoint
        assert len(union) == len(set(union))

    def test_phase_subdomains_do_not_overlap(self):
        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=8, steps_y=8)
        for phase in range(4):
            covered = np.zeros((geo.global_ny, geo.global_nx), dtype=int)
            m = geo.subdomain_points
            for anchor in geo.anchors_for_phase(phase):
                r0, c0 = geo.anchor_window(anchor)
                covered[r0: r0 + m, c0: c0 + m] += 1
            # Interiors never overlap within a phase; only shared edges/corners
            # may be touched by up to four tiles.
            assert covered.max() <= 4
            rows, cols = np.where(covered[1:-1, 1:-1] > 1)
            # overlapping points may only lie on shared subdomain edges (lattice lines)
            assert all(
                (r + 1) % geo.half == 0 or (c + 1) % geo.half == 0
                for r, c in zip(rows, cols)
            )

    def test_anchor_window_bounds(self, small_geometry):
        with pytest.raises(ValueError):
            small_geometry.anchor_window((99, 0))
        assert small_geometry.anchor_window((1, 2)) == (
            small_geometry.half,
            2 * small_geometry.half,
        )


class TestIndexSets:
    def test_center_lines_exclude_endpoints_and_count(self, small_geometry):
        rows, cols = small_geometry.center_line_local_indices()
        m, h = small_geometry.subdomain_points, small_geometry.half
        assert len(rows) == (m - 2) + (m - 3)
        # no point lies on the subdomain boundary
        assert rows.min() >= 1 and rows.max() <= m - 2
        assert cols.min() >= 1 and cols.max() <= m - 2
        # every point is on one of the two centre lines and the centre appears once
        on_lines = (rows == h) | (cols == h)
        assert np.all(on_lines)
        assert np.sum((rows == h) & (cols == h)) == 1

    def test_center_line_coordinates_match_indices(self, small_geometry):
        rows, cols = small_geometry.center_line_local_indices()
        coords = small_geometry.center_line_local_coordinates()
        assert np.allclose(coords[:, 0], cols * small_geometry.spacing)
        assert np.allclose(coords[:, 1], rows * small_geometry.spacing)

    def test_interior_indices_cover_interior(self, small_geometry):
        rows, cols = small_geometry.interior_local_indices()
        m = small_geometry.subdomain_points
        assert len(rows) == (m - 2) ** 2

    def test_lattice_mask_structure(self, small_geometry):
        mask = small_geometry.lattice_mask()
        assert mask[0, :].all() and mask[:, 0].all()
        assert mask[small_geometry.half, :].all()
        assert not mask[1, 1]

    def test_every_interior_lattice_point_is_updated_by_some_anchor(self):
        """Coverage invariant: the union of all centre lines over all anchors
        equals the interior lattice points."""

        geo = MosaicGeometry(subdomain_points=9, subdomain_extent=0.5, steps_x=6, steps_y=4)
        updated = np.zeros((geo.global_ny, geo.global_nx), dtype=bool)
        crow, ccol = geo.center_line_local_indices()
        for anchor in geo.anchors():
            r0, c0 = geo.anchor_window(anchor)
            updated[r0 + crow, c0 + ccol] = True
        lattice = geo.lattice_mask()
        boundary = np.zeros_like(lattice)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
        expected = lattice & ~boundary
        assert np.array_equal(updated, expected)
