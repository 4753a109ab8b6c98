"""Zigzag paths, slopes, the zigzag polygon, and consistency.

A zigzag path alternates direction on the two colors: having arrived at
a white node it leaves along the next edge counterclockwise (the
sharpest available right turn), at a black node along the next edge
clockwise.  Each edge carries one strand in each direction, so the
paths consume every directed edge side exactly once.

A model is consistent when no path has zero slope, no two paths of
equal slope share an edge, and around every node the strand order
agrees with the counterclockwise order of their slopes.  The tests
cross-check this against a bounded check of the same notion on lifted
paths in the universal cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, Iterable, List, Tuple

from .dimer import WHITE, DimerModel, angle_equal, angle_less, rotation_system
from .lattice import Vec, convex_hull, normalize_translation, primitive

Side = Tuple[int, int]  # (edge id, +1 for white->black, -1 for black->white)


class NotClosedError(Exception):
    """Slopes do not close up to a polygon boundary."""


class NonPrimitiveSlopeError(Exception):
    """A nonzero slope is an integer multiple of a shorter vector."""


@dataclass(frozen=True)
class ZigzagPath:
    id: int
    sides: Tuple[Side, ...]
    slope: Vec

    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(e for e, _ in self.sides)

    def __len__(self) -> int:
        return len(self.sides)


def _canonical_rotation(sides: List[Side]) -> Tuple[Side, ...]:
    key = min(range(len(sides)),
              key=lambda i: (sides[i][0], 0 if sides[i][1] == 1 else 1))
    return tuple(sides[key:] + sides[:key])


def zigzag_paths(model: DimerModel) -> List[ZigzagPath]:
    rot = rotation_system(model)
    succ: Dict[int, Dict[int, int]] = {}
    pred: Dict[int, Dict[int, int]] = {}
    for nid, cycle in rot.items():
        k = len(cycle)
        succ[nid] = {cycle[i]: cycle[(i + 1) % k] for i in range(k)}
        pred[nid] = {cycle[i]: cycle[(i - 1) % k] for i in range(k)}

    def step(side: Side) -> Side:
        eid, d = side
        e = model.edge(eid)
        if d == 1:
            return (pred[e.black][eid], -1)
        return (succ[e.white][eid], 1)

    all_sides = [(e.id, 1) for e in model.edges] + [(e.id, -1) for e in model.edges]
    all_sides.sort(key=lambda s: (s[0], 0 if s[1] == 1 else 1))
    used = set()
    cycles: List[Tuple[Side, ...]] = []
    for start in all_sides:
        if start in used:
            continue
        cyc = []
        cur = start
        while True:
            cyc.append(cur)
            used.add(cur)
            cur = step(cur)
            if cur == start:
                break
        cycles.append(_canonical_rotation(cyc))
    cycles.sort(key=lambda c: (c[0][0], 0 if c[0][1] == 1 else 1))
    out = []
    for i, cyc in enumerate(cycles):
        sx = sum(d * model.edge(e).offset[0] for e, d in cyc)
        sy = sum(d * model.edge(e).offset[1] for e, d in cyc)
        out.append(ZigzagPath(id=i, sides=cyc, slope=(sx, sy)))
    return out


def zigzag_polygon(slopes: Iterable[Vec]):
    """Polygon whose primitive outward side normals are the given slopes,
    anchored with its lexicographically smallest corner at the origin."""
    nonzero = [tuple(s) for s in slopes if tuple(s) != (0, 0)]
    if not nonzero:
        raise NotClosedError("no nonzero slopes")
    for s in nonzero:
        if primitive(s) != s:
            raise NonPrimitiveSlopeError(f"slope {s} is not primitive")
    total = (sum(s[0] for s in nonzero), sum(s[1] for s in nonzero))
    if total != (0, 0):
        raise NotClosedError(f"slopes sum to {total}, not (0,0)")

    def cmp(a, b):
        if angle_equal(a, b):
            return 0
        return -1 if angle_less(a, b) else 1

    ordered = sorted(nonzero, key=cmp_to_key(cmp))
    pts = [(0, 0)]
    x = y = 0
    for s in ordered:
        # side vector is the slope rotated a quarter turn counterclockwise
        x += -s[1]
        y += s[0]
        pts.append((x, y))
    return normalize_translation(convex_hull(pts))


@dataclass
class ConsistencyVerdict:
    consistent: bool
    zero_slope: Tuple[int, ...] = ()
    nonprimitive: Tuple[int, ...] = ()
    shared_edges: Tuple[Tuple[int, int, int], ...] = ()  # (path, path, edge)
    misordered_nodes: Tuple[int, ...] = ()

    def failures(self) -> List[str]:
        out = []
        if self.zero_slope:
            out.append(f"zero-slope paths {list(self.zero_slope)}")
        if self.nonprimitive:
            out.append(f"non-primitive slopes on paths {list(self.nonprimitive)}")
        if self.shared_edges:
            out.append(
                "equal-slope paths sharing edges "
                + str([(p, q, e) for p, q, e in self.shared_edges])
            )
        if self.misordered_nodes:
            out.append(f"strand order broken at nodes {list(self.misordered_nodes)}")
        return out


def check_consistency(model: DimerModel) -> ConsistencyVerdict:
    paths = zigzag_paths(model)
    owner: Dict[Side, int] = {}
    for p in paths:
        for side in p.sides:
            owner[side] = p.id
    zero = tuple(p.id for p in paths if p.slope == (0, 0))
    nonprim = tuple(
        p.id for p in paths if p.slope != (0, 0) and primitive(p.slope) != p.slope
    )
    shared: List[Tuple[int, int, int]] = []
    for e in model.edges:
        p = owner[(e.id, 1)]
        q = owner[(e.id, -1)]
        if p == q or paths[p].slope == paths[q].slope:
            a, b = min(p, q), max(p, q)
            shared.append((a, b, e.id))
    misordered: List[int] = []
    if not zero:
        rot = rotation_system(model)
        for n in model.nodes:
            arrive = 1 if n.color != WHITE else -1
            slopes_around = [paths[owner[(eid, arrive)]].slope for eid in rot[n.id]]
            k = len(slopes_around)
            descents = 0
            for i in range(k):
                a, b = slopes_around[i], slopes_around[(i + 1) % k]
                if not angle_equal(a, b) and angle_less(b, a):
                    descents += 1
            if descents > 1:
                misordered.append(n.id)
    verdict = ConsistencyVerdict(
        consistent=not (zero or nonprim or shared or misordered),
        zero_slope=zero,
        nonprimitive=nonprim,
        shared_edges=tuple(shared),
        misordered_nodes=tuple(misordered),
    )
    return verdict
