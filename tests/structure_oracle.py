"""The structure report read cell by cell from per-edge distance partitions.

The package reads the cells of every edge at the base as three bitmasks
per level (graphs.cell_pattern); this oracle follows the definitions
literally, one DistancePartition per neighbour, testing each cell for
vertices.
"""
from typing import Mapping, Optional

from tkit.graphs import (DistancePartition, Graph, NeighborThreshold, StructureReport,
                         distance_partition)


def partitions_at(g: Graph, x: int) -> dict[int, DistancePartition]:
    """distance_partition(g, x, y) for every neighbour y of x, by y."""
    return {y: distance_partition(g, x, y) for y in g.neighbors(x)}


def oracle_structure_report(g: Graph, x: int,
                            partitions: Mapping[int, DistancePartition]) -> StructureReport:
    """Evaluate the cell-pattern predicates of the distance partitions
    around x; partitions maps each neighbour y of x to
    distance_partition(g, x, y)."""
    nbrs = g.neighbors(x)
    # a connected graph where x has no neighbor is a single vertex
    d = partitions[nbrs[0]].ecc_x if nbrs else 0
    vacuous = len(nbrs) < 2

    # per level, whether some neighbor has a nonempty mid cell there
    any_mid = [any(partitions[z].cell(i, i) for z in nbrs) for i in range(d + 1)]
    records = []
    for y in nbrs:
        part = partitions[y]
        up = tuple(bool(part.cell(i, i + 1)) for i in range(d + 1))
        mid = tuple(bool(part.cell(i, i)) for i in range(d + 1))
        down = tuple(bool(part.cell(i, i - 1)) for i in range(d + 1))
        # longest prefix where the upward cell is nonempty and every mid
        # cell (over all neighbors) is empty
        t = 0
        while t + 1 <= d and up[t + 1] and not any_mid[t + 1]:
            t += 1
        defined = all(not up[i] for i in range(t + 1, d + 1))
        records.append(NeighborThreshold(y, t if defined else None, up, mid, down))

    down_ok = all(rec.down_nonempty[i] for rec in records for i in range(1, d + 1))

    up_blocks = True
    for i in range(1, d + 1):
        if any(rec.up_nonempty[i] for rec in records):
            if any(rec.mid_nonempty[j] for rec in records for j in range(1, i + 1)):
                up_blocks = False
                break

    contiguous = True
    for rec in records:
        if rec.threshold is None:
            continue
        top = max((j for j in range(1, d + 1) if rec.mid_nonempty[j]), default=None)
        if top is not None:
            if not all(rec.mid_nonempty[i] for i in range(rec.threshold + 1, top + 1)):
                contiguous = False
                break

    defined_all = all(rec.threshold is not None for rec in records)
    constant: Optional[bool]
    if defined_all and records:
        constant = len({rec.threshold for rec in records}) == 1
    else:
        constant = None

    return StructureReport(
        x=x,
        ecc=d,
        vacuous=vacuous,
        is_tree=(g.edge_count == g.n - 1),
        per_neighbor=tuple(records),
        down_cells_all_nonempty=down_ok,
        up_blocks_mid=up_blocks,
        mid_runs_contiguous=contiguous,
        thresholds_defined=defined_all,
        threshold_constant=constant,
    )
