import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhlogsim.topology import (
    BS,
    MoveKind,
    bsc_of,
    bsc_site,
    build_topology,
    classify_move,
    hop_distance,
    region_of,
    sample_next_cell,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestBuildTopology:
    def test_small_ring_layout(self):
        tree = build_topology(1, 2, 2, "ring")
        assert tree.n_cells == 4
        assert [bsc_of(tree, c) for c in range(4)] == [0, 0, 1, 1]

    def test_single_region_tree(self):
        tree = build_topology(1, 1, 3, "ring")
        assert all(bsc_of(tree, c) == 0 for c in range(3))

    def test_ring_wraparound_neighbors(self):
        tree = build_topology(2, 2, 2, "ring")
        assert set(tree.adjacency[0]) == {1, 7}

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            build_topology(0, 2, 2)

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError, match="mobility"):
            build_topology(1, 1, 1)

    def test_grid_four_neighborhood(self):
        tree = build_topology(1, 3, 3, "grid")  # 9 cells, 3x3
        assert set(tree.adjacency[4]) == {1, 3, 5, 7}
        assert set(tree.adjacency[0]) == {1, 3}

    def test_adjacency_symmetric_every_cell_connected(self):
        for kind in ("ring", "grid"):
            tree = build_topology(2, 2, 3, kind)
            for c, nbrs in enumerate(tree.adjacency):
                assert nbrs, f"cell {c} isolated"
                for n in nbrs:
                    assert c in tree.adjacency[n]


class TestBscOf:
    def test_index_arithmetic(self):
        assert bsc_of(build_topology(1, 2, 2), 3) == 1
        assert bsc_of(build_topology(2, 2, 2), 5) == 2

    def test_unknown_cell(self):
        with pytest.raises(ValueError, match="unknown cell"):
            bsc_of(build_topology(1, 2, 2), 9)
        # A negative cell must not wrap around the cell -> BSC table.
        with pytest.raises(ValueError, match="unknown cell -1"):
            bsc_of(build_topology(1, 2, 2), -1)


class TestHopDistance:
    def setup_method(self):
        self.tree = build_topology(2, 2, 2, "ring")

    def test_parent_link(self):
        assert hop_distance(self.tree, (BS, 0), bsc_site(0)) == 1

    def test_identity(self):
        assert hop_distance(self.tree, bsc_site(0), bsc_site(0)) == 0

    def test_bscs_under_one_msc(self):
        assert hop_distance(self.tree, bsc_site(0), bsc_site(1)) == 2

    def test_bscs_across_mscs(self):
        assert hop_distance(self.tree, bsc_site(0), bsc_site(2)) == 4

    def test_sibling_cells(self):
        assert hop_distance(self.tree, (BS, 0), (BS, 1)) == 2

    def test_cells_across_regions(self):
        assert hop_distance(self.tree, (BS, 0), (BS, 2)) == 4
        assert hop_distance(self.tree, (BS, 0), (BS, 7)) == 6

    def test_region_of_decodes_bs_and_bsc_sites_only(self):
        assert region_of(self.tree, (BS, 5)) == 2
        assert region_of(self.tree, bsc_site(3)) == 3
        with pytest.raises(ValueError, match="not a BS or BSC site"):
            region_of(self.tree, ("mh", 0))
        with pytest.raises(ValueError, match="not a BS or BSC site"):
            hop_distance(self.tree, (BS, 0), ("mh", 0))

    def test_unknown_bsc(self):
        with pytest.raises(ValueError, match="unknown BSC 99"):
            hop_distance(self.tree, bsc_site(99), (BS, 0))
        with pytest.raises(ValueError, match="unknown BSC -1"):
            region_of(self.tree, bsc_site(-1))

    @given(st.data())
    @settings(max_examples=200)
    def test_metric_properties_over_random_trees(self, data):
        msc = data.draw(st.integers(1, 3))
        bsc = data.draw(st.integers(1, 3))
        bs = data.draw(st.integers(1, 3))
        if msc * bsc * bs < 2:
            bs = 2
        tree = build_topology(msc, bsc, bs, "ring")
        sites = [(BS, c) for c in range(tree.n_cells)]
        sites += [bsc_site(b) for b in range(tree.n_bscs)]
        a = data.draw(st.sampled_from(sites))
        b = data.draw(st.sampled_from(sites))
        c = data.draw(st.sampled_from(sites))
        dab = hop_distance(tree, a, b)
        assert dab == hop_distance(tree, b, a)
        assert (dab == 0) == (a == b)
        assert dab <= hop_distance(tree, a, c) + hop_distance(tree, c, b)


class TestSampleNextCell:
    def test_support_is_neighbor_set(self):
        tree = build_topology(1, 2, 2, "ring")
        r = rng(7)
        seen = {sample_next_cell(tree, 0, r) for _ in range(200)}
        assert seen == {1, 3}

    def test_deterministic_per_stream(self):
        tree = build_topology(2, 2, 2, "ring")
        walk1 = []
        r = rng(99)
        cell = 0
        for _ in range(50):
            cell = sample_next_cell(tree, cell, r)
            walk1.append(cell)
        walk2 = []
        r = rng(99)
        cell = 0
        for _ in range(50):
            cell = sample_next_cell(tree, cell, r)
            walk2.append(cell)
        assert walk1 == walk2

    def test_uniform_split_between_neighbors(self):
        tree = build_topology(1, 2, 2, "ring")
        r = rng(3)
        n = 100_000
        hits = sum(sample_next_cell(tree, 0, r) == 1 for _ in range(n))
        assert abs(hits / n - 0.5) < 0.02

    def test_trajectory_stays_in_cell_set(self):
        tree = build_topology(1, 3, 3, "grid")
        r = rng(5)
        cell = 0
        for _ in range(500):
            cell = sample_next_cell(tree, cell, r)
            assert 0 <= cell < tree.n_cells


class TestClassifyMove:
    def test_intra_region(self):
        tree = build_topology(1, 2, 2)
        assert classify_move(tree, 0, 1) is MoveKind.INTRA_BSC

    def test_inter_region(self):
        tree = build_topology(1, 2, 2)
        assert classify_move(tree, 1, 2) is MoveKind.INTER_BSC

    def test_single_region_always_intra(self):
        tree = build_topology(1, 1, 3)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert classify_move(tree, a, b) is MoveKind.INTRA_BSC

    def test_not_a_handoff(self):
        tree = build_topology(1, 2, 2)
        with pytest.raises(ValueError, match="not a handoff"):
            classify_move(tree, 1, 1)

    @given(st.integers(0, 11), st.integers(0, 11))
    def test_symmetric(self, a, b):
        tree = build_topology(1, 4, 3)
        if a == b:
            return
        assert classify_move(tree, a, b) is classify_move(tree, b, a)
