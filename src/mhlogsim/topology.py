"""Cellular network hierarchy: MSC -> BSC -> BS cells, plus host movement.

Cells (base stations) carry global indices 0..n_cells-1; cell c belongs to
BSC ``c // bss_per_bsc`` and BSC b belongs to MSC ``b // bscs_per_msc``.
The region of a BSC is the set of cells it controls. Wired hop counts are
fixed by the tree shape:

    BS <-> its BSC            1
    BS <-> BS, same BSC       2
    BSC <-> BSC, same MSC     2
    BSC <-> BSC, across MSCs  inter_msc_bsc_hops (default 4, a declared
                              convention for an MSC backbone of diameter 2)

Sites are (kind, index) pairs so log fragments can name their holder.
The tree's shape fields are the ``topology.*`` parameter rows. A network
may hold at most ``MAX_CELLS`` cells, so that building one (in time and
memory linear in its cells) stays bounded for every accepted config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

from .model import COUNT, Bound, ValidationError, param

CellId = int
BscId = int

# Site kinds used across the strategy layer.
BS = "bs"
BSC = "bsc"

Site = tuple[str, int]

MAX_CELLS = 1_000_000


class UniformDraws(Protocol):
    """``np.random.Generator`` or ``engine.PCG64Stream``."""

    def random(self) -> float: ...

    def integers(self, n: int) -> int: ...


def bsc_site(bsc: BscId) -> Site:
    return (BSC, bsc)


class MoveKind(Enum):
    INTRA_BSC = "intra_bsc"
    INTER_BSC = "inter_bsc"


@dataclass(frozen=True)
class NetworkTree:
    """Immutable topology with precomputed cell adjacency and cell -> BSC table."""

    adjacency: tuple[tuple[CellId, ...], ...]
    cell_bsc: tuple[BscId, ...]
    msc_count: int = param(1, "topology.msc", COUNT)
    bscs_per_msc: int = param(3, "topology.bsc_per_msc", COUNT)
    bss_per_bsc: int = param(3, "topology.bs_per_bsc", COUNT)
    adjacency_kind: str = param("ring", "topology.adjacency",
                                Bound("ring or grid, got {!r}", lambda v: v in ("ring", "grid")))
    inter_msc_bsc_hops: int = param(4, "topology.inter_msc_hops",
                                    Bound(">= 2, got {!r}", lambda v: v >= 2))

    @property
    def n_bscs(self) -> int:
        return self.msc_count * self.bscs_per_msc

    @property
    def n_cells(self) -> int:
        return self.n_bscs * self.bss_per_bsc


def _ring_adjacency(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for i in range(n):
        nbrs = sorted({(i - 1) % n, (i + 1) % n} - {i})
        out.append(tuple(nbrs))
    return tuple(out)


def _grid_adjacency(n: int) -> tuple[tuple[int, ...], ...]:
    # Near-square layout, row-major, 4-neighborhood.
    cols = math.ceil(math.sqrt(n))
    out = []
    for i in range(n):
        r, c = divmod(i, cols)
        nbrs = []
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if rr < 0 or cc < 0 or cc >= cols:
                continue
            j = rr * cols + cc
            if 0 <= j < n:
                nbrs.append(j)
        out.append(tuple(sorted(nbrs)))
    return tuple(out)


def build_topology(
    msc_count: int,
    bscs_per_msc: int,
    bss_per_bsc: int,
    adjacency_kind: str = "ring",
    inter_msc_bsc_hops: int = 4,
) -> NetworkTree:
    """Construct the tree and the cell adjacency over the global cell order
    from shape values that each lie within their row.

    A network needs at least two cells: movement is part of every run, and a
    single-cell network has nowhere to hand off to. The cell count joins
    three rows, so it is checked here, before any of the network is built.
    """
    n = msc_count * bscs_per_msc * bss_per_bsc
    if not 2 <= n <= MAX_CELLS:
        keys = "topology.msc * topology.bsc_per_msc * topology.bs_per_bsc"
        bound = ">= 2 cells for mobility" if n < 2 else f"<= MAX_CELLS ({MAX_CELLS})"
        raise ValidationError([f"{keys} must be {bound}, got {n}"])
    adjacency = _grid_adjacency if adjacency_kind == "grid" else _ring_adjacency
    return NetworkTree(
        adjacency=adjacency(n),
        cell_bsc=tuple(c // bss_per_bsc for c in range(n)),
        msc_count=msc_count,
        bscs_per_msc=bscs_per_msc,
        bss_per_bsc=bss_per_bsc,
        adjacency_kind=adjacency_kind,
        inter_msc_bsc_hops=inter_msc_bsc_hops,
    )


def bsc_of(tree: NetworkTree, cell: CellId) -> BscId:
    """The unique BSC owning ``cell``."""
    if not 0 <= cell < len(tree.cell_bsc):
        raise ValueError(f"unknown cell {cell}")
    return tree.cell_bsc[cell]


def cells_of_bsc(tree: NetworkTree, bsc: BscId) -> list[CellId]:
    start = bsc * tree.bss_per_bsc
    return list(range(start, start + tree.bss_per_bsc))


def _bsc_gap(tree: NetworkTree, a: BscId, b: BscId) -> int:
    """Wired hops between two known BSCs: 0, 2 under one MSC, else the
    inter-MSC count."""
    if a == b:
        return 0
    if a // tree.bscs_per_msc == b // tree.bscs_per_msc:
        return 2
    return tree.inter_msc_bsc_hops


def region_of(tree: NetworkTree, site: Site) -> BscId:
    """The BSC region a BS or BSC site belongs to."""
    kind, idx = site
    if kind == BS:
        return bsc_of(tree, idx)
    if kind == BSC:
        if not 0 <= idx < tree.n_bscs:
            raise ValueError(f"unknown BSC {idx}")
        return idx
    raise ValueError(f"not a BS or BSC site: {site}")


def hop_distance(tree: NetworkTree, a: Site, b: Site) -> int:
    """Wired tree-path length between two BS or BSC sites: one hop from each
    BS up to its BSC, plus the gap between the two BSCs."""
    if a == b:
        return 0
    return hops_between(tree, a, region_of(tree, a), b, region_of(tree, b))


def hops_between(tree: NetworkTree, a: Site, a_region: BscId, b: Site, b_region: BscId) -> int:
    """``hop_distance`` for sites whose regions the caller already holds."""
    if a == b:
        return 0
    hops = (a[0] == BS) + (b[0] == BS)
    return hops if a_region == b_region else hops + _bsc_gap(tree, a_region, b_region)


def sample_next_cell(tree: NetworkTree, current: CellId, rng: UniformDraws) -> CellId:
    """Uniformly random neighbor of ``current``; deterministic per stream."""
    nbrs = tree.adjacency[current]
    return nbrs[int(rng.integers(len(nbrs)))]


def classify_move(tree: NetworkTree, from_cell: CellId, to_cell: CellId) -> MoveKind:
    """Intra-BSC when both cells share a region, inter-BSC otherwise."""
    if from_cell == to_cell:
        raise ValueError("not a handoff: from_cell == to_cell")
    if bsc_of(tree, from_cell) == bsc_of(tree, to_cell):
        return MoveKind.INTRA_BSC
    return MoveKind.INTER_BSC
