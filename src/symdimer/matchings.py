"""Perfect matchings, height changes, and the characteristic polygon.

The height of a matching D is the sum c of its edge offsets, rotated a
quarter turn so that it lives in the polygon lattice: ht(D) = (-c_y, c_x).
The height change of D against a reference D0 is ht(D) - ht(D0), the
homology class of the difference cycle D - D0.  The characteristic
polygon is the hull of the heights; it is found from a maximum-weight
matching oracle, and the enumeration here serves the commands that need
the matchings themselves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .dimer import BLACK, WHITE, DimerModel, SymmetryAction
from .lattice import (
    DegenerateError,
    Vec,
    contains_point,
    convex_hull,
    exact_invariant_frame,
)

Matching = Tuple[int, ...]

DEFAULT_CAP = 10**6


class CapExceededError(Exception):
    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class NoInvariantMatchingError(Exception):
    """No perfect matching at the origin is fixed by the whole group."""


class OriginNotInPolygonError(Exception):
    """(0,0) is not a point of the characteristic polygon."""


def enumerate_matchings(model: DimerModel, cap: int = DEFAULT_CAP) -> List[Matching]:
    """All perfect matchings, found by backtracking over nodes taken in
    degree-ascending order.  Returns [] when the colors are unbalanced."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    whites = sum(1 for n in model.nodes if n.color == WHITE)
    blacks = len(model.nodes) - whites
    if whites != blacks:
        return []
    order = sorted((n.id for n in model.nodes),
                   key=lambda nid: (model.degree(nid), nid))
    results: List[Matching] = []
    covered = set()
    chosen: List[int] = []

    def extend():
        nid = next((n for n in order if n not in covered), None)
        if nid is None:
            if len(results) == cap:
                raise CapExceededError(
                    f"more than {cap} perfect matchings", count=cap
                )
            results.append(tuple(sorted(chosen)))
            return
        for eid in sorted(model.edges_at(nid)):
            e = model.edge(eid)
            other = e.black if e.white == nid else e.white
            if other in covered:
                continue
            covered.add(nid)
            covered.add(other)
            chosen.append(eid)
            extend()
            chosen.pop()
            covered.discard(nid)
            covered.discard(other)

    extend()
    return results


def is_perfect_matching(model: DimerModel, edges: Iterable[int]) -> bool:
    touched = set()
    for eid in edges:
        e = model.edge(eid)
        if e.white in touched or e.black in touched:
            return False
        touched.add(e.white)
        touched.add(e.black)
    return len(touched) == len(model.nodes)


def _offset_sum(model: DimerModel, matching: Iterable[int]) -> Vec:
    ox = oy = 0
    for eid in matching:
        o = model.edge(eid).offset
        ox += o[0]
        oy += o[1]
    return (ox, oy)


def height_change(model: DimerModel, matching: Iterable[int],
                  reference: Iterable[int]) -> Vec:
    a = _offset_sum(model, matching)
    b = _offset_sum(model, reference)
    c = (a[0] - b[0], a[1] - b[1])
    return (-c[1], c[0])


def characteristic_polygon(model: DimerModel) -> Tuple[Vec, ...]:
    """Convex hull of the absolute heights ht(D) of all perfect matchings,
    as convex_hull returns it: the Newton polygon of the dimer model
    (Kenyon, Okounkov and Sheffield, arXiv:math-ph/0311005).

    Nothing is enumerated.  The hull is gift-wrapped with the support
    oracle: the four axis directions first, then the outward normal of
    each hull edge, keeping a returned height only when it lies strictly
    beyond that edge, until no edge grows; while the heights found are
    collinear, both normals of their segment are queried.  About
    2 x (hull edges) + 4 oracle queries, in exact ints.  ValueError if
    there is no perfect matching, DegenerateError if the heights span no
    polygon."""
    points = {
        height_change(model, support(model, (), u)[1], ())
        for u in ((1, 0), (0, 1), (-1, 0), (0, -1))
    }
    settled = set()
    while True:
        try:
            hull = convex_hull(points)
        except DegenerateError:
            # Collinear so far: the segment's two edges query both normals.
            hull = (min(points), max(points))
        grown = False
        for a, b in zip(hull, hull[1:] + hull[:1]):
            if (a, b) in settled:
                continue
            n = (b[1] - a[1], a[0] - b[0])
            value, m = support(model, (), n)
            if value > n[0] * a[0] + n[1] * a[1]:
                points.add(height_change(model, m, ()))
                grown = True
            else:
                settled.add((a, b))
        if not grown:
            return convex_hull(points)


def apply_to_matching(action: SymmetryAction, h, matching: Iterable[int]) -> Matching:
    perm = action.edge_perm(h)
    return tuple(sorted(perm[e] for e in matching))


def _edge_orbits(model: DimerModel, action: SymmetryAction) -> List[Tuple[int, ...]]:
    seen = set()
    orbits = []
    for e in model.edges:
        if e.id in seen:
            continue
        orbit = {e.id}
        frontier = [e.id]
        while frontier:
            cur = frontier.pop()
            for h in action.elements:
                img = action.edge_perm(h)[cur]
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _invariant_by_orbit_cover(
    model: DimerModel, action: SymmetryAction
) -> Optional[Matching]:
    """Search for an invariant perfect matching as a union of edge orbits."""
    orbits = [
        o for o in _edge_orbits(model, action)
        if len({n for eid in o for n in (model.edge(eid).white, model.edge(eid).black)})
        == 2 * len(o)
    ]
    node_order = sorted(n.id for n in model.nodes)
    by_node: Dict[int, List[int]] = {nid: [] for nid in node_order}
    for i, o in enumerate(orbits):
        for eid in o:
            e = model.edge(eid)
            by_node[e.white].append(i)
            by_node[e.black].append(i)
    covered = set()
    chosen: List[int] = []

    def covers(i: int) -> set:
        return {
            n for eid in orbits[i] for n in (model.edge(eid).white, model.edge(eid).black)
        }

    def search() -> Optional[Matching]:
        nid = next((n for n in node_order if n not in covered), None)
        if nid is None:
            return tuple(sorted(eid for i in chosen for eid in orbits[i]))
        for i in by_node[nid]:
            ns = covers(i)
            if ns & covered:
                continue
            covered.update(ns)
            chosen.append(i)
            res = search()
            if res is not None:
                return res
            chosen.pop()
            covered.difference_update(ns)
        return None

    return search()


def invariant_matching_at_origin(
    model: DimerModel,
    action: SymmetryAction,
    cap: int = DEFAULT_CAP,
) -> Matching:
    """First enumerated perfect matching at the origin that every group
    element fixes setwise, from a single enumeration.

    The origin is that of the group-invariant placement of the
    characteristic polygon: the hull of the heights against the first
    enumerated matching, moved by exact_invariant_frame so that every
    element fixes it exactly.  Past the cap, an orbit-cover search returns
    a G-invariant perfect matching whose height is not checked."""
    try:
        ms = enumerate_matchings(model, cap)
    except CapExceededError:
        found = _invariant_by_orbit_cover(model, action)
        if found is None:
            raise NoInvariantMatchingError(
                "no invariant matching found by orbit cover"
            ) from None
        return found
    if not ms:
        raise NoInvariantMatchingError("model has no perfect matching")
    heights = [height_change(model, m, ms[0]) for m in ms]
    try:
        hull = convex_hull(heights)
        frame = exact_invariant_frame(hull, action.elements)
    except (DegenerateError, ValueError) as exc:
        raise NoInvariantMatchingError(
            f"polygon has no invariant placement: {exc}"
        ) from exc
    # frame == hull - want, so the frame's (0,0) is the height want.
    want = (hull[0][0] - frame[0][0], hull[0][1] - frame[0][1])
    at_origin = [m for m, h in zip(ms, heights) if h == want]
    if not at_origin:
        if not contains_point(frame, (0, 0)):
            raise OriginNotInPolygonError(
                "(0,0) lies outside the characteristic polygon"
            )
        raise NoInvariantMatchingError("no matching sits at the origin")
    for m in at_origin:
        fixed = frozenset(m)
        if all(
            frozenset(action.edge_perm(h)[e] for e in m) == fixed
            for h in action.elements
        ):
            return m
    raise NoInvariantMatchingError(
        "no origin matching is fixed by the whole group"
    )


# ---------------------------------------------------------------------------
# Maximum-weight perfect matching: the linear-optimisation oracle over the
# heights, from which the characteristic polygon is built

_BIG = 1 << 40


def _min_cost_assignment(cost: List[List[int]]) -> Optional[List[int]]:
    """Hungarian algorithm; returns for each column the assigned row, or
    None when no finite-cost perfect assignment exists."""
    n = len(cost)
    INF = _BIG * (n + 1)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0 or delta >= INF:
                return None
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [p[j] for j in range(1, n + 1)]


def max_weight_perfect_matching(
    model: DimerModel, weights: Dict[int, int]
) -> Optional[Matching]:
    whites = sorted(n.id for n in model.nodes if n.color == WHITE)
    blacks = sorted(n.id for n in model.nodes if n.color == BLACK)
    if len(whites) != len(blacks) or not whites:
        return None
    wi = {nid: i for i, nid in enumerate(whites)}
    bi = {nid: i for i, nid in enumerate(blacks)}
    n = len(whites)
    best: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for e in model.edges:
        i, j = wi[e.white], bi[e.black]
        w = weights.get(e.id, 0)
        cur = best[i][j]
        if cur is None or w > weights.get(cur, 0) or (
            w == weights.get(cur, 0) and e.id < cur
        ):
            best[i][j] = e.id
    cost = [
        [
            -weights.get(best[i][j], 0) if best[i][j] is not None else _BIG
            for j in range(n)
        ]
        for i in range(n)
    ]
    rows = _min_cost_assignment(cost)
    if rows is None:
        return None
    out = []
    for j, i1 in enumerate(rows):
        eid = best[i1 - 1][j]
        if eid is None:
            return None
        out.append(eid)
    return tuple(sorted(out))


def support(
    model: DimerModel, reference: Matching, direction: Vec
) -> Tuple[int, Matching]:
    """Maximum of <ht(D, reference), direction> over all matchings D,
    together with a matching attaining it.  reference=() gives the
    absolute height ht(D).  ValueError if there is no perfect matching."""
    ux, uy = direction
    weights = {
        e.id: e.offset[0] * uy - e.offset[1] * ux for e in model.edges
    }
    m = max_weight_perfect_matching(model, weights)
    if m is None:
        raise ValueError("model has no perfect matching")
    value = sum(weights[e] for e in m) - sum(weights[e] for e in reference)
    return value, m

