"""Tests for the power-supply domain map."""

import pytest
from hypothesis import given, strategies as st

from repro.chip.domains import DOMAIN_SIZE, DomainMap
from repro.chip.mesh import MeshGeometry


@pytest.fixture
def dmap():
    return DomainMap(MeshGeometry(10, 6))


class TestConstruction:
    def test_paper_platform_has_15_domains(self, dmap):
        assert dmap.domain_count == 15
        assert dmap.domain_coord(14) == (4, 2)  # a 5x3 domain grid

    def test_odd_mesh_rejected(self):
        with pytest.raises(ValueError, match="even"):
            DomainMap(MeshGeometry(9, 6))
        with pytest.raises(ValueError, match="even"):
            DomainMap(MeshGeometry(10, 5))

    def test_every_domain_has_four_tiles(self, dmap):
        for d in range(dmap.domain_count):
            assert len(dmap.tiles_of(d)) == DOMAIN_SIZE

    def test_domains_partition_the_mesh(self, dmap):
        seen = set()
        for d in range(dmap.domain_count):
            tiles = dmap.tiles_of(d)
            assert not seen & set(tiles)
            seen.update(tiles)
        assert seen == set(range(60))

    def test_domain_tiles_form_2x2_block(self, dmap):
        mesh = dmap.mesh
        for d in range(dmap.domain_count):
            coords = [mesh.coord_of(t) for t in dmap.tiles_of(d)]
            xs = {c[0] for c in coords}
            ys = {c[1] for c in coords}
            assert len(xs) == 2 and max(xs) - min(xs) == 1
            assert len(ys) == 2 and max(ys) - min(ys) == 1

    def test_domain_of_matches_tiles_of(self, dmap):
        for d in range(dmap.domain_count):
            for t in dmap.tiles_of(d):
                assert dmap.domain_of(t) == d

    def test_bad_ids_raise(self, dmap):
        with pytest.raises(ValueError):
            dmap.domain_of(60)
        with pytest.raises(ValueError):
            dmap.tiles_of(15)
        with pytest.raises(ValueError):
            dmap.domain_coord(-1)


class TestGridGeometry:
    def test_domain_distance(self, dmap):
        assert dmap.domain_distance(0, 0) == 0
        assert dmap.domain_distance(0, 4) == 4
        assert dmap.domain_distance(0, 14) == 6

    @pytest.mark.parametrize("w,h", [(10, 6), (4, 4), (8, 2), (2, 6), (12, 8)])
    def test_distance_table_equals_coordinate_formula(self, w, h):
        dmap = DomainMap(MeshGeometry(w, h))
        table = dmap.distances
        assert len(table) == dmap.domain_count
        for a in range(dmap.domain_count):
            ax, ay = dmap.domain_coord(a)
            for b in range(dmap.domain_count):
                bx, by = dmap.domain_coord(b)
                expected = abs(ax - bx) + abs(ay - by)
                assert table[a][b] == expected
                assert dmap.domain_distance(a, b) == expected
                assert type(table[a][b]) is int

    def test_domain_distance_rejects_out_of_range(self, dmap):
        for a, b in ((-1, 0), (0, -1), (15, 0), (0, 15)):
            with pytest.raises(ValueError, match="outside"):
                dmap.domain_distance(a, b)

    @given(w=st.sampled_from([2, 4, 6, 8]), h=st.sampled_from([2, 4, 6, 8]), data=st.data())
    def test_intra_domain_tiles_within_two_hops(self, w, h, data):
        """Any two tiles of a 2x2 domain are at Manhattan distance <= 2."""
        dmap = DomainMap(MeshGeometry(w, h))
        d = data.draw(st.integers(0, dmap.domain_count - 1))
        tiles = dmap.tiles_of(d)
        for a in tiles:
            for b in tiles:
                assert dmap.mesh.manhattan(a, b) <= 2
