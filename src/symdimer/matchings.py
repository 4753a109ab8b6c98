"""Perfect matchings, height changes, and the characteristic polygon.

The height of a matching D is the sum c of its edge offsets, rotated a
quarter turn so that it lives in the polygon lattice: ht(D) = (-c_y, c_x).
The height change of D against a reference D0 is ht(D) - ht(D0), the
homology class of the difference cycle D - D0.  The characteristic
polygon is the hull of the heights; it is found from a maximum-weight
matching oracle, which runs sparse over the edge list: successive
shortest augmenting paths by Dijkstra with integer node potentials, in
O(n m log n) per query for n nodes of a colour and m edges, in exact
ints.  The G-invariant matching at the origin is found by a
depth-first search over edge orbits, bounded by SEARCH_BOUND search
nodes, with no enumeration.  The enumeration here serves only the
command that lists the matchings themselves.
"""

from __future__ import annotations

from heapq import heappop, heappush
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

# Search nodes the origin-matching search may visit: 1 to 2 CPU seconds
# on a 2-vCPU VM.  The largest case known to succeed, the 4x4 cover of
# the square model under the trivial group, visits 188 669.
SEARCH_BOUND = 10**6


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
        height_change(model, support(model, u)[1], ())
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
            value, m = support(model, n)
            if value > n[0] * a[0] + n[1] * a[1]:
                points.add(height_change(model, m, ()))
                grown = True
            else:
                settled.add((a, b))
        if not grown:
            return convex_hull(points)


def invariant_matching_at_origin(model: DimerModel, action: SymmetryAction) -> Matching:
    """The first perfect matching at the origin, in enumerate_matchings
    order, that every group element fixes setwise; nothing is enumerated.

    The origin is that of the group-invariant placement of the
    characteristic polygon: the oracle hull of the absolute heights,
    moved by exact_invariant_frame so that every element fixes it
    exactly.  Its absolute height is `want`.  An invariant matching is a
    union of edge orbits that are partial matchings, so the search is
    depth first over those orbits: at the first uncovered node in
    (degree, id) order it tries the orbits with an edge there, by that
    edge's id, and accepts a complete matching only at height `want`.
    Two invariant matchings first differ at the smallest node whose
    edges differ, and enumerate_matchings reaches that node with the
    same choices made, so both list the invariant matchings in one
    order.  Raises NoInvariantMatchingError when no such matching exists
    or when SEARCH_BOUND search nodes are spent, and
    OriginNotInPolygonError when the polygon misses the origin."""
    try:
        hull = characteristic_polygon(model)
    except ValueError as exc:  # no perfect matching
        raise NoInvariantMatchingError(str(exc)) from None
    except DegenerateError as exc:
        raise NoInvariantMatchingError(
            f"polygon has no invariant placement: {exc}"
        ) from exc
    try:
        frame = exact_invariant_frame(hull, action.elements)
    except ValueError as exc:
        raise NoInvariantMatchingError(
            f"polygon has no invariant placement: {exc}"
        ) from exc
    if not contains_point(frame, (0, 0)):
        raise OriginNotInPolygonError(
            "(0,0) lies outside the characteristic polygon"
        )
    # frame == hull - want; ht(D) = (-c_y, c_x) for the offset sum c.
    want = (hull[0][0] - frame[0][0], hull[0][1] - frame[0][1])
    target = (want[1], -want[0])
    # Node sets are bit masks: bit k is the k-th node in (degree, id) order.
    order = sorted((n.id for n in model.nodes), key=lambda nid: (model.degree(nid), nid))
    place = {nid: k for k, nid in enumerate(order)}
    # choices[k]: (edge id at node k, node mask, edges, offset sum) per orbit
    choices: List[List[Tuple[int, int, Matching, Vec]]] = [[] for _ in order]
    for orb in set(action.edge_orbits().values()):
        ends = [place[n] for eid in orb for n in (model.edge(eid).white, model.edge(eid).black)]
        if len(set(ends)) < len(ends):
            continue  # two of its edges share a node
        mask = sum(1 << k for k in ends)
        edges = tuple(sorted(orb))
        offset = _offset_sum(model, edges)
        for eid in edges:
            e = model.edge(eid)
            for n in (e.white, e.black):
                choices[place[n]].append((eid, mask, edges, offset))
    for options in choices:
        options.sort()
    full = (1 << len(order)) - 1
    visits = 0

    def search(covered: int, ox: int, oy: int) -> Optional[Matching]:
        nonlocal visits
        visits += 1
        if visits > SEARCH_BOUND:
            raise NoInvariantMatchingError(
                f"origin matching search spent its bound of {SEARCH_BOUND} nodes"
            )
        if covered == full:
            return () if (ox, oy) == target else None
        first = (~covered & (covered + 1)).bit_length() - 1
        for _, mask, edges, (dx, dy) in choices[first]:
            if not mask & covered:
                rest = search(covered | mask, ox + dx, oy + dy)
                if rest is not None:
                    return edges + rest
        return None

    found = search(0, 0, 0)
    if found is None:
        raise NoInvariantMatchingError(
            "no origin matching is fixed by the whole group"
        )
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# Maximum-weight perfect matching: the linear-optimisation oracle over the
# heights, from which the characteristic polygon is built

def max_weight_perfect_matching(
    model: DimerModel, weights: Dict[int, int]
) -> Optional[Matching]:
    """A perfect matching of largest total weight (an edge missing from
    `weights` weighs 0), or None when the model has none.

    Minimum-cost perfect matching with cost -weight, by successive
    shortest augmenting paths over the edge list (Edmonds and Karp,
    J. ACM 19 (1972); Tomizawa, Networks 1 (1971)), in exact ints.  The
    potentials u (white) and v (black) keep every reduced cost
    c - u - v >= 0, and 0 on matched edges.  They start feasible: each
    black at its cheapest edge, then each white at its cheapest reduced
    edge; tight edges are then matched greedily.  Each white left free
    is matched by one Dijkstra over reduced costs on the alternating
    graph, up to the nearest free black at distance D; every settled
    node's potential moves by D minus its distance, which keeps the
    reduced costs non-negative and makes the path tight.  A query costs
    O(n m log n) for n whites and m edges, and far less when the greedy
    start matches most whites."""
    whites = [n.id for n in model.nodes if n.color == WHITE]
    blacks = [n.id for n in model.nodes if n.color == BLACK]
    n = len(whites)
    if n != len(blacks) or not n:
        return None
    wi = {nid: i for i, nid in enumerate(whites)}
    bi = {nid: j for j, nid in enumerate(blacks)}
    # adj[i]: (cost, black, edge id) for each edge at white i
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for e in model.edges:
        adj[wi[e.white]].append((-weights.get(e.id, 0), bi[e.black], e.id))
    if not all(adj):
        return None
    v: List[Optional[int]] = [None] * n
    for arcs in adj:
        for c, j, _ in arcs:
            if v[j] is None or c < v[j]:
                v[j] = c
    if None in v:
        return None
    u = [min(c - v[j] for c, j, _ in arcs) for arcs in adj]
    black_of = [-1] * n  # white -> black
    white_of: List[Optional[Tuple[int, int]]] = [None] * n  # black -> (white, edge)
    for i, arcs in enumerate(adj):
        for c, j, eid in arcs:
            if white_of[j] is None and c == u[i] + v[j]:
                black_of[i] = j
                white_of[j] = (i, eid)
                break
    for s in range(n):
        if black_of[s] >= 0:
            continue
        dist_w = {s: 0}
        dist_b: Dict[int, int] = {}
        done: Dict[int, int] = {}  # settled black -> distance
        via: Dict[int, Tuple[int, int]] = {}  # black -> (white, edge) reaching it
        heap: List[Tuple[int, int]] = []
        i, d = s, 0
        while True:
            base = d - u[i]
            for c, j, eid in adj[i]:
                nd = base + c - v[j]
                if j not in dist_b or nd < dist_b[j]:
                    dist_b[j] = nd
                    via[j] = (i, eid)
                    heappush(heap, (nd, j))
            # the first entry popped for a black is its distance
            while heap:
                d, j = heappop(heap)
                if j not in done:
                    break
            else:
                return None  # no augmenting path from s
            done[j] = d
            if white_of[j] is None:
                break
            i = white_of[j][0]
            dist_w[i] = d
        for w, dw in dist_w.items():
            u[w] += d - dw
        for b, db in done.items():
            v[b] -= d - db
        while True:
            i, eid = via[j]
            nxt = black_of[i]
            black_of[i] = j
            white_of[j] = (i, eid)
            if i == s:
                break
            j = nxt
    return tuple(sorted(eid for _, eid in white_of))


def support(model: DimerModel, direction: Vec) -> Tuple[int, Matching]:
    """Maximum of <ht(D), direction> over all matchings D, with ht(D) the
    absolute height, together with a matching attaining it, from the
    sparse max_weight_perfect_matching with edge weights <ht, direction>:
    O(n m log n) int operations for n nodes of a colour and m edges.
    ValueError if there is no perfect matching."""
    ux, uy = direction
    weights = {
        e.id: e.offset[0] * uy - e.offset[1] * ux for e in model.edges
    }
    m = max_weight_perfect_matching(model, weights)
    if m is None:
        raise ValueError("model has no perfect matching")
    return sum(weights[e] for e in m), m

