"""Zigzag paths, slopes, the zigzag polygon, and consistency.

A zigzag path alternates direction on the two colors: having arrived at
a white node it leaves along the next edge counterclockwise (the
sharpest available right turn), at a black node along the next edge
clockwise.  Each edge carries one strand in each direction, so the
paths consume every directed edge side exactly once.

A model is consistent when no path has zero slope, no two paths of
equal slope share an edge, and around every node the strand order
agrees with the counterclockwise order of their slopes.  The bounded
universal-cover check in consistency_via_cover evaluates the same
notion directly from lifted paths and is used as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dimer import WHITE, DimerModel, angle_equal, angle_less, rotation_system
from .lattice import Vec, convex_hull, normalize_translation, primitive

Side = Tuple[int, int]  # (edge id, +1 for white->black, -1 for black->white)


class NotClosedError(Exception):
    """Slopes do not close up to a polygon boundary."""


class NonPrimitiveSlopeError(Exception):
    """A nonzero slope is an integer multiple of a shorter vector."""


class WindowTooSmallError(Exception):
    """The translate window cannot hold the lifted paths."""


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


# ---------------------------------------------------------------------------
# Universal cover


@dataclass(frozen=True)
class CoverIntersection:
    edge: int
    translate: Vec  # translate of the shared edge copy
    lift: Vec  # which lift of the second path meets the base lift of the first
    time1: int
    time2: int


def _walk_translates(model: DimerModel, path: ZigzagPath) -> List[Vec]:
    """Translate of the edge copy used by each side of the base lift."""
    out = []
    tx = ty = 0
    for eid, d in path.sides:
        o = model.edge(eid).offset
        if d == 1:
            out.append((tx, ty))
            tx += o[0]
            ty += o[1]
        else:
            tx -= o[0]
            ty -= o[1]
            out.append((tx, ty))
    return out


def _span(vals: Iterable[Vec]) -> int:
    m = 0
    for v in vals:
        m = max(m, abs(v[0]), abs(v[1]))
    return m


def universal_cover_intersections(
    model: DimerModel,
    z1: ZigzagPath,
    z2: ZigzagPath,
    window: int,
) -> List[CoverIntersection]:
    """Shared edge copies between the base lift of z1 and every lift of z2
    whose translate lies in the window box.  Identical parameter points are
    skipped when z1 and z2 are the same path."""
    w1 = _walk_translates(model, z1)
    w2 = _walk_translates(model, z2)
    need = max(_span(w1), _span(w2), _span([z1.slope, z2.slope])) + 1
    if window < need:
        raise WindowTooSmallError(
            f"window {window} below required {need}"
        )

    def copies(path: ZigzagPath, walk: List[Vec]):
        u = path.slope
        out = {}
        n = len(path.sides)
        if u == (0, 0):
            ks: Sequence[int] = (0,)
        else:
            reach = 3 * window + 2 * _span(walk) + 2
            ks = range(-reach, reach + 1)
        for i, (eid, _) in enumerate(path.sides):
            base = walk[i]
            for k in ks:
                t = (base[0] + k * u[0], base[1] + k * u[1])
                if abs(t[0]) <= window and abs(t[1]) <= window:
                    out.setdefault((eid, t), []).append(i + k * n)
        return out

    c1 = copies(z1, w1)
    c2 = copies(z2, w2)
    same = z1.sides == z2.sides

    def deck_shift(s: Vec) -> Optional[int]:
        # k such that s = k * slope: translating a lift by a multiple of its
        # slope gives the same curve with parameters shifted by k periods
        u = z1.slope
        if u == (0, 0):
            return 0 if s == (0, 0) else None
        for k_num, k_den in ((s[0], u[0]), (s[1], u[1])):
            if k_den != 0:
                if k_num % k_den != 0:
                    return None
                k = k_num // k_den
                if (k * u[0], k * u[1]) == s:
                    return k
                return None
        return None

    records = []
    for s_x in range(-window, window + 1):
        for s_y in range(-window, window + 1):
            s = (s_x, s_y)
            shift = deck_shift(s) if same else None
            for (eid, t2), times2 in c2.items():
                t = (t2[0] + s[0], t2[1] + s[1])
                if abs(t[0]) > window or abs(t[1]) > window:
                    continue
                times1 = c1.get((eid, t))
                if not times1:
                    continue
                for time1 in times1:
                    for time2 in times2:
                        if shift is not None and time1 - time2 == shift * len(z1.sides):
                            continue
                        records.append(
                            CoverIntersection(
                                edge=eid, translate=t, lift=s,
                                time1=time1, time2=time2,
                            )
                        )
    records.sort(key=lambda r: (r.lift, r.time1, r.time2, r.edge))
    return records


def consistency_via_cover(
    model: DimerModel, window: Optional[int] = None
) -> Tuple[bool, List[str]]:
    """Direct bounded check of the cover conditions: no trivial class, no
    lift meeting itself or a translate of itself, and no pair of lifts
    intersecting twice in the same direction."""
    paths = zigzag_paths(model)
    reasons: List[str] = []
    for p in paths:
        if p.slope == (0, 0):
            reasons.append(f"path {p.id} is homologically trivial")
    if window is None:
        span = max(
            (_span(_walk_translates(model, p)) for p in paths), default=0
        )
        maxslope = max((_span([p.slope]) for p in paths), default=0)
        window = span + 2 * maxslope + 2
    for a in range(len(paths)):
        for b in range(a, len(paths)):
            recs = universal_cover_intersections(model, paths[a], paths[b], window)
            if a == b:
                if recs:
                    reasons.append(
                        f"lifts of path {a} intersect (edge {recs[0].edge})"
                    )
                continue
            by_lift: Dict[Vec, List[CoverIntersection]] = {}
            for r in recs:
                by_lift.setdefault(r.lift, []).append(r)
            for s, group in sorted(by_lift.items()):
                hit = False
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        d1 = group[i].time1 - group[j].time1
                        d2 = group[i].time2 - group[j].time2
                        if d1 * d2 > 0:
                            reasons.append(
                                f"paths {a} and {b} meet twice in the same "
                                f"direction (lift {s})"
                            )
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
    return (not reasons, reasons)
