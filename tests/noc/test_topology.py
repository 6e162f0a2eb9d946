"""Tests for the NoC topology layer."""

import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.topology import MESH_DIRECTIONS, Direction, MeshTopology


@pytest.fixture
def topo():
    return MeshTopology(MeshGeometry(4, 3))


class TestDirection:
    def test_opposites(self):
        assert Direction.EAST.opposite is Direction.WEST
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert Direction.LOCAL.opposite is Direction.LOCAL

    def test_offsets(self):
        assert Direction.EAST.offset == (1, 0)
        assert Direction.SOUTH.offset == (0, 1)
        assert Direction.LOCAL.offset == (0, 0)


class TestTopology:
    def test_neighbor_lookup(self, topo):
        # Tile 5 is at (1, 1) in a 4x3 mesh.
        assert topo.neighbor(5, Direction.EAST) == 6
        assert topo.neighbor(5, Direction.WEST) == 4
        assert topo.neighbor(5, Direction.NORTH) == 1
        assert topo.neighbor(5, Direction.SOUTH) == 9
        assert topo.neighbor(5, Direction.LOCAL) == 5

    def test_edges_have_no_neighbor(self, topo):
        assert topo.neighbor(0, Direction.WEST) is None
        assert topo.neighbor(0, Direction.NORTH) is None
        assert topo.neighbor(11, Direction.EAST) is None
        assert topo.neighbor(11, Direction.SOUTH) is None

    def test_out_directions(self, topo):
        assert set(topo.out_directions(0)) == {Direction.EAST, Direction.SOUTH}
        assert set(topo.out_directions(5)) == set(MESH_DIRECTIONS)

    @pytest.mark.parametrize("w,h", [(4, 3), (10, 6), (1, 5)])
    def test_hops_equal_manhattan_distance(self, w, h):
        mesh = MeshGeometry(w, h)
        table = mesh.hop_table()
        for a in mesh.tiles():
            ax, ay = mesh.coord_of(a)
            for b in mesh.tiles():
                bx, by = mesh.coord_of(b)
                hops = table[a][b]
                assert type(hops) is int
                assert hops == abs(ax - bx) + abs(ay - by)
                assert hops == mesh.manhattan(a, b)

    def test_direction_towards(self, topo):
        assert topo.direction_towards(0, 6) == [Direction.EAST, Direction.SOUTH]
        assert topo.direction_towards(6, 0) == [Direction.WEST, Direction.NORTH]
        assert topo.direction_towards(0, 3) == [Direction.EAST]
        assert topo.direction_towards(3, 3) == []

    def test_links_count(self, topo):
        # 4x3 mesh: horizontal 3*3*2 + vertical 4*2*2 = 18 + 16 = 34.
        assert len(topo.links()) == 34

    def test_links_bidirectional(self, topo):
        links = set(topo.links())
        for tile, d in links:
            nxt = topo.neighbor(tile, d)
            assert (nxt, d.opposite) in links
