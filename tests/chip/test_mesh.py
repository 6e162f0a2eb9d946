"""Tests for the 2D mesh geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.chip.mesh import MeshGeometry


@pytest.fixture
def mesh():
    return MeshGeometry(10, 6)


class TestBasics:
    def test_tile_count(self, mesh):
        assert mesh.tile_count == 60

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshGeometry(0, 5)
        with pytest.raises(ValueError):
            MeshGeometry(5, -1)

    def test_row_major_indexing(self, mesh):
        assert mesh.coord_of(0) == (0, 0)
        assert mesh.coord_of(9) == (9, 0)
        assert mesh.coord_of(10) == (0, 1)
        assert mesh.coord_of(59) == (9, 5)

    def test_tile_at_out_of_range(self, mesh):
        with pytest.raises(ValueError):
            mesh.tile_at((10, 0))
        with pytest.raises(ValueError):
            mesh.tile_at((0, 6))
        with pytest.raises(ValueError):
            mesh.tile_at((-1, 0))

    def test_coord_of_out_of_range(self, mesh):
        with pytest.raises(ValueError):
            mesh.coord_of(60)
        with pytest.raises(ValueError):
            mesh.coord_of(-1)

    def test_manhattan(self, mesh):
        assert mesh.manhattan(0, 0) == 0
        assert mesh.manhattan(0, 9) == 9
        assert mesh.manhattan(0, 59) == 14
        assert mesh.manhattan(11, 0) == 2  # (1,1) -> (0,0)

    @pytest.mark.parametrize("shape", [(4, 4), (8, 8), (10, 6)])
    def test_hop_table_matches_manhattan(self, shape):
        geometry = MeshGeometry(*shape)
        table = geometry.hop_table()
        assert len(table) == geometry.tile_count
        for a in geometry.tiles():
            assert len(table[a]) == geometry.tile_count
            for b in geometry.tiles():
                assert type(table[a][b]) is int
                assert table[a][b] == geometry.manhattan(a, b)
        assert MeshGeometry(*shape).hop_table() is table

    def test_neighbors_corner_edge_interior(self, mesh):
        assert sorted(mesh.neighbors(0)) == [1, 10]
        assert sorted(mesh.neighbors(5)) == [4, 6, 15]
        assert len(mesh.neighbors(11)) == 4

    def test_tiles_within(self, mesh):
        ring1 = mesh.tiles_within(11, 1)
        assert sorted(ring1) == sorted(mesh.neighbors(11))
        ring2 = mesh.tiles_within(11, 2)
        assert set(ring1) < set(ring2)
        assert 11 not in ring2
        with pytest.raises(ValueError):
            mesh.tiles_within(0, -1)


class TestProperties:
    @given(
        w=st.integers(1, 16),
        h=st.integers(1, 16),
        data=st.data(),
    )
    def test_coord_tile_roundtrip(self, w, h, data):
        mesh = MeshGeometry(w, h)
        tile = data.draw(st.integers(0, mesh.tile_count - 1))
        assert mesh.tile_at(mesh.coord_of(tile)) == tile

    @given(
        w=st.integers(2, 12),
        h=st.integers(2, 12),
        data=st.data(),
    )
    def test_manhattan_is_metric(self, w, h, data):
        mesh = MeshGeometry(w, h)
        ids = st.integers(0, mesh.tile_count - 1)
        a, b, c = data.draw(ids), data.draw(ids), data.draw(ids)
        assert mesh.manhattan(a, b) == mesh.manhattan(b, a)
        assert mesh.manhattan(a, b) >= 0
        assert (mesh.manhattan(a, b) == 0) == (a == b)
        assert mesh.manhattan(a, c) <= mesh.manhattan(a, b) + mesh.manhattan(b, c)

    @given(w=st.integers(1, 12), h=st.integers(1, 12), data=st.data())
    def test_neighbors_are_distance_one(self, w, h, data):
        mesh = MeshGeometry(w, h)
        tile = data.draw(st.integers(0, mesh.tile_count - 1))
        for n in mesh.neighbors(tile):
            assert mesh.manhattan(tile, n) == 1


class TestPairHopSum:
    """``pair_hop_sum`` against the brute-force sum over all pairs."""

    @staticmethod
    def brute(mesh, tiles):
        return sum(
            mesh.manhattan(a, b)
            for i, a in enumerate(tiles)
            for b in tiles[i + 1:]
        )

    def test_small_cases(self, mesh):
        assert mesh.pair_hop_sum([]) == 0
        assert mesh.pair_hop_sum([17]) == 0
        assert mesh.pair_hop_sum([0, 59]) == 14
        assert mesh.pair_hop_sum([3, 3]) == 0

    @given(
        w=st.integers(1, 12),
        h=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_pairwise_sum(self, w, h, data):
        mesh = MeshGeometry(w, h)
        tiles = data.draw(
            st.lists(st.integers(0, mesh.tile_count - 1), max_size=40)
        )
        assert mesh.pair_hop_sum(tiles) == self.brute(mesh, tiles)
