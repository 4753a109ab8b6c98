"""Covers, edge deletion, re-embedding, and symmetric corner chops.

A corner chop deletes the edges where zigzag paths of the corner's two
sides cross (one path of each side, or as many of each as the cut's
legs are long), together with their whole edge orbit under the group,
collapses the divalent nodes this leaves behind, and computes a fresh
harmonic embedding.  Every candidate outcome is verified from scratch
(geometry, consistency, zigzag polygon) before it is accepted, once per
source model: the verdict is kept on the model, and a search may charge
each decision to a work budget.
"""

import heapq
import itertools
import math
from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .dimer import (
    DimerModel,
    Edge,
    MergeLoopError,
    Node,
    SymmetryAction,
    frac_pt,
    remove_divalent,
    symmetry_actions,
    validate,
)
from .lattice import (
    DegenerateError,
    Mat2,
    convex_hull,
    corner_chop_admissible,
    exact_invariant_frame,
    normalize_translation,
    orbit,
    polygon_area2,
    primitive,
    remove_corner_orbit,
)
from .zigzag import (
    NonPrimitiveSlopeError,
    NotClosedError,
    check_consistency,
    zigzag_paths,
    zigzag_polygon,
)

Vec = Tuple[int, int]


class SurgeryError(Exception):
    pass


class SingularBasisError(SurgeryError):
    """The sublattice matrix of a cover has determinant zero."""


class IsolatedNodeError(SurgeryError):
    """An edge deletion would leave a node with no edges at all."""


class UnivalentAfterDeletionError(SurgeryError):
    """An edge deletion would leave a node with exactly one edge."""


class EmbeddingFailedError(SurgeryError):
    """No harmonic embedding with distinct node positions exists."""


class WholePolygonError(SurgeryError):
    """The requested cut would remove the whole polygon."""


class SearchExhaustedError(SurgeryError):
    """No symmetric crossing resolution realizes the corner chop."""


# ---------------------------------------------------------------------------
# Covers


def _rational_inverse(s: Mat2):
    det = Fraction(s.det())
    if det == 0:
        raise SingularBasisError("sublattice matrix is singular")
    return (
        (Fraction(s.d) / det, Fraction(-s.b) / det),
        (Fraction(-s.c) / det, Fraction(s.a) / det),
    )


def _apply_rational(m, v):
    return (
        m[0][0] * v[0] + m[0][1] * v[1],
        m[1][0] * v[0] + m[1][1] * v[1],
    )


def _coset_rep(s: Mat2, inv, v: Vec) -> Vec:
    """v reduced modulo the columns of s: v - s*floor(s^{-1} v), where inv
    is the rational inverse of s."""
    w = _apply_rational(inv, v)
    sf = s.apply((math.floor(w[0]), math.floor(w[1])))
    return (v[0] - sf[0], v[1] - sf[1])


def _coset_representatives(s: Mat2) -> List[Vec]:
    """Representatives of Z^2 modulo the sublattice spanned by the columns
    of s, reduced with _coset_rep."""
    k = abs(s.det())
    inv = _rational_inverse(s)
    seen = []
    for a in range(k):
        for b in range(k):
            r = _coset_rep(s, inv, (a, b))
            if r not in seen:
                seen.append(r)
    if len(seen) != k:
        raise ValueError("coset enumeration failed")
    return sorted(seen)


def cover(model: DimerModel, s: Mat2) -> DimerModel:
    """Pullback of the model along the torus cover with deck lattice s*Z^2,
    written in unit-torus coordinates.

    A singular matrix raises SingularBasisError.  A basis with negative
    determinant is first canonicalized by negating its second column,
    which spans the same sublattice.  The characteristic polygon of the
    result is the transpose of the (canonicalized) basis applied to the
    original polygon."""
    if s.det() == 0:
        raise SingularBasisError("sublattice matrix is singular")
    if s.det() < 0:
        s = Mat2.from_rows(((s.a, -s.b), (s.c, -s.d)))
    reps = _coset_representatives(s)
    k = len(reps)
    index = {r: i for i, r in enumerate(reps)}
    inv = _rational_inverse(s)

    # Exact position and its integer part for each (node, coset) pair.
    pos: Dict[Tuple[int, int], Tuple[Fraction, Fraction]] = {}
    whole: Dict[Tuple[int, int], Vec] = {}
    nodes = []
    for n in model.nodes:
        for ci, r in enumerate(reps):
            raw = _apply_rational(inv, (n.pos[0] + r[0], n.pos[1] + r[1]))
            m = (math.floor(raw[0]), math.floor(raw[1]))
            p = (raw[0] - m[0], raw[1] - m[1])
            pos[(n.id, ci)] = p
            whole[(n.id, ci)] = m
            nodes.append(Node(id=n.id * k + ci, color=n.color, pos=p))

    edges = []
    for e in model.edges:
        for ci, r in enumerate(reps):
            target = (r[0] + e.offset[0], r[1] + e.offset[1])
            r2 = _coset_rep(s, inv, target)
            ci2 = index[r2]
            jump = _apply_rational(
                inv, (target[0] - r2[0], target[1] - r2[1])
            )
            assert jump[0].denominator == 1 and jump[1].denominator == 1
            off = (
                int(jump[0]) + whole[(e.black, ci2)][0] - whole[(e.white, ci)][0],
                int(jump[1]) + whole[(e.black, ci2)][1] - whole[(e.white, ci)][1],
            )
            edges.append(
                Edge(
                    id=e.id * k + ci,
                    white=e.white * k + ci,
                    black=e.black * k + ci2,
                    offset=off,
                )
            )
    return DimerModel(nodes, edges)


# ---------------------------------------------------------------------------
# Edge deletion


def delete_edges(model: DimerModel, edge_ids: Iterable[int]) -> DimerModel:
    """Remove the given edges and collapse any divalent nodes that appear.

    Deleting nothing returns the model unchanged.  A node left with no
    edges raises IsolatedNodeError, a node left with exactly one edge
    raises UnivalentAfterDeletionError, and a collapse that would produce
    a loop raises MergeLoopError.  Node positions are kept, so the result
    may need re-embedding before it is geometrically valid again."""
    doomed = set(edge_ids)
    if not doomed:
        return model
    unknown = doomed - {e.id for e in model.edges}
    if unknown:
        raise ValueError(f"unknown edge ids {sorted(unknown)}")
    kept = [e for e in model.edges if e.id not in doomed]
    degree: Dict[int, int] = {n.id: 0 for n in model.nodes}
    for e in kept:
        degree[e.white] += 1
        degree[e.black] += 1
    isolated = sorted(n for n, d in degree.items() if d == 0)
    if isolated:
        raise IsolatedNodeError(
            f"deletion leaves nodes {isolated} with no edges"
        )
    univalent = sorted(n for n, d in degree.items() if d == 1)
    if univalent:
        raise UnivalentAfterDeletionError(
            f"deletion leaves nodes {univalent} with a single edge"
        )
    return remove_divalent(DimerModel(model.nodes, kept))


# ---------------------------------------------------------------------------
# Harmonic re-embedding


def reembed(model: DimerModel) -> DimerModel:
    """Tutte's barycentric embedding: move every node to the centroid of
    its neighbors (as seen through the edge offsets), keeping the
    smallest node id pinned in place.

    The unknowns are the displacements from the pin, so the pinned graph
    Laplacian and the right-hand side (sums of edge offsets) are
    integers.  The Laplacian is stored as one sparse row per node and
    eliminated fraction-free, both coordinates in one pass: the active
    row with the fewest entries is the pivot (ties to the smaller index),
    every row j with an entry in the pivot column becomes
    piv*r_j - r_j[p]*r_p, and is divided by the gcd of its entries and
    its right-hand side.  The multiplier r_j[p] is read from row j
    itself: scaled rows are no longer symmetric.  Back-substitution runs
    in `Fraction`s, then the pin is added back.  Each integer row is a
    positive multiple of the row a `Fraction` elimination would hold, so
    the pivot order, the singular pivots and the solution are the same.

    The solution is the unique harmonic embedding with that pin;
    symmetric models stay symmetric because affine torus maps preserve
    centroids.  A graph not connected to the pin raises
    EmbeddingFailedError("singular harmonic system"), and two nodes
    landing on one position raise EmbeddingFailedError with DimerModel's
    message."""
    ids = sorted(n.id for n in model.nodes)
    idx = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    rows: List[Dict[int, int]] = [{} for _ in range(n)]
    rhs = [[0, 0] for _ in range(n)]
    for e in model.edges:
        w, b = idx[e.white], idx[e.black]
        for u, v, sign in ((w, b, 1), (b, w, -1)):
            if u == 0:
                continue
            row, r = rows[u], rhs[u]
            row[u] = row.get(u, 0) + 1
            r[0] += sign * e.offset[0]
            r[1] += sign * e.offset[1]
            if v:
                row[v] = row.get(v, 0) - 1

    # The system is symmetric positive semidefinite, so a diagonal pivot
    # is zero exactly when the matrix is singular.
    heap = [(len(rows[i]), i) for i in range(1, n)]
    heapq.heapify(heap)
    active = [i > 0 for i in range(n)]
    order: List[Tuple[int, int]] = []
    while heap:
        size, p = heapq.heappop(heap)
        if not active[p] or size != len(rows[p]):
            continue
        active[p] = False
        row = rows[p]
        piv = row.pop(p, 0)
        if piv == 0:
            raise EmbeddingFailedError("singular harmonic system")
        order.append((p, piv))
        bx, by = rhs[p]
        for j in row:
            a = rows[j][p]
            rj = {k: piv * v for k, v in rows[j].items() if k != p}
            for k, v in row.items():
                s = rj.get(k, 0) - a * v
                if s:
                    rj[k] = s
                else:
                    rj.pop(k, None)
            x, y = rhs[j]
            x, y = piv * x - a * bx, piv * y - a * by
            g = math.gcd(x, y, *rj.values())
            if g > 1:
                rj = {k: v // g for k, v in rj.items()}
                x, y = x // g, y // g
            rows[j], rhs[j] = rj, [x, y]
            heapq.heappush(heap, (len(rj), j))

    disp: List[Tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))] * n
    for p, piv in reversed(order):
        x, y = rhs[p]
        for k, v in rows[p].items():
            x -= v * disp[k][0]
            y -= v * disp[k][1]
        disp[p] = (Fraction(x) / piv, Fraction(y) / piv)
    pin = model.node(ids[0]).pos
    nodes = [
        Node(
            id=nid,
            color=model.node(nid).color,
            pos=frac_pt((pin[0] + disp[i][0], pin[1] + disp[i][1])),
        )
        for i, nid in enumerate(ids)
    ]
    try:
        return DimerModel(nodes, model.edges)
    except ValueError as exc:
        raise EmbeddingFailedError(str(exc)) from None


# ---------------------------------------------------------------------------
# Corner geometry in the zigzag polygon


def _corner_sides(poly: Sequence[Vec], corner: Vec):
    """For a corner of a counterclockwise convex polygon: the primitive
    directions of the incoming side (from the previous corner) and the
    outgoing side (toward the next corner)."""
    i = poly.index(corner)
    prev, nxt = poly[i - 1], poly[(i + 1) % len(poly)]
    d_in = primitive((corner[0] - prev[0], corner[1] - prev[1]))
    d_out = primitive((nxt[0] - corner[0], nxt[1] - corner[1]))
    return d_in, d_out


def _side_normal(d: Vec) -> Vec:
    """Outward normal of a counterclockwise side direction; this is the
    slope of the zigzag paths contributing that side of the polygon."""
    return (d[1], -d[0])


# ---------------------------------------------------------------------------
# Verified cutting engine


class BudgetSpentError(Exception):
    """A search ran out of its work budget.  Not a SurgeryError: it ends
    the whole search, not one candidate."""


class Budget:
    """A work allowance counted in edge units: a step that handles a
    model is charged the model's number of edges (a candidate cut
    decided, the candidate cuts gathered at a corner), a step that
    handles no model is charged one.  Verdicts already kept on a model
    cost nothing."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def charge(self, cost: int = 1) -> None:
        if self.spent >= self.limit:
            raise BudgetSpentError(
                f"work budget spent: {self.spent} of {self.limit} edge units"
            )
        self.spent += cost


def _edge_orbits(action: SymmetryAction) -> Dict[int, FrozenSet[int]]:
    """Each edge's orbit under the maps the action's elements generate.

    Generated, not one image per element: the element maps of an action
    on a model with extra translations need not compose as the group
    does."""
    perms = [action.edge_perm(h) for h in action.elements]
    orbits: Dict[int, FrozenSet[int]] = {}
    for start in perms[0]:  # every edge id
        if start in orbits:
            continue
        orb = {start}
        todo = [start]
        while todo:
            e = todo.pop()
            for perm in perms:
                if perm[e] not in orb:
                    orb.add(perm[e])
                    todo.append(perm[e])
        frozen = frozenset(orb)
        for e in orb:
            orbits[e] = frozen
    return orbits


def _cut(
    model: DimerModel, doomed: Set[int], target: Tuple[Vec, ...]
) -> Optional[DimerModel]:
    """Delete the edges, collapse, re-embed, and return the result only if
    it is a valid consistent model whose zigzag polygon is the target."""
    try:
        cut = delete_edges(model, doomed)
        cut = reembed(cut)
    except (SurgeryError, MergeLoopError):
        return None
    if not validate(cut).ok:
        return None
    try:
        got = zigzag_polygon([p.slope for p in zigzag_paths(cut)])
    except (NotClosedError, NonPrimitiveSlopeError):
        return None
    if got != target:
        return None
    if not check_consistency(cut).consistent:
        return None
    return cut


def _try_cut(
    model: DimerModel,
    doomed: Set[int],
    target: Tuple[Vec, ...],
    accept=None,
    budget: Optional[Budget] = None,
) -> Optional[DimerModel]:
    """_cut, decided once per (model, deleted edges, target) and kept on
    the source model in model._cuts, each decision charged to the budget
    (if any); then the acceptance predicate (if any).

    A chop meets the same candidate again under other actions of the
    group, and a repeated chop of the same model object meets all of
    them again.  _cut depends only on the key, so its verdict is cached;
    accept may depend on the caller and runs on every call."""
    key = (frozenset(doomed), target)
    if key not in model._cuts:
        if budget is not None:
            budget.charge(len(model.edges))
        model._cuts[key] = _cut(model, doomed, target)
    cut = model._cuts[key]
    if cut is None or (accept is not None and not accept(cut)):
        return None
    return cut


def _distinct_edge_orbits(
    model: DimerModel, group: Sequence[Mat2]
) -> Iterator[Dict[int, FrozenSet[int]]]:
    """The edge orbits of each action of the group on the model, in
    symmetry_actions order, skipping an action whose orbit partition
    repeats an earlier one's: it would give the same deleted edge sets."""
    seen = set()
    for action in symmetry_actions(model, group):
        orbits = _edge_orbits(action)
        partition = frozenset(orbits.values())
        if partition not in seen:
            seen.add(partition)
            yield orbits


def corner_cuts(
    model: DimerModel,
    group: Sequence[Mat2],
    corner: Vec,
    legs: int = 1,
    target: Optional[Sequence[Vec]] = None,
    accept=None,
    budget: Optional[Budget] = None,
) -> Iterator[DimerModel]:
    """Each way to cut the triangle with two legs of the given lattice
    length off one polygon corner, and off its whole orbit, symmetrically
    under an action of the group (a list of all its elements).

    The corner is named in the exactly invariant frame of the zigzag
    polygon (the translate fixed setwise by every group element).  The
    chop must be admissible: no other corner in the orbit is joined to
    this one by a primitive boundary segment.  With one leg the target
    is by default the hull of the remaining lattice points; longer legs
    need the target spelled out.

    A candidate deletes, for one choice of `legs` zigzag paths of each of
    the corner's two sides that all cross one another, the crossing
    edges together with their whole edge orbit under one action.  A
    consistent model has as many faces as twice its polygon's area, and
    each deleted edge merges two faces, so only candidates that delete
    exactly the area difference are tried, in the order of the actions
    and the path choices.  Each outcome that verifies and is accepted is
    yielded.  Gathering the candidates, and each candidate decided, is
    charged to the budget, if one is given.  Raises WholePolygonError
    when nothing remains and BudgetSpentError when the budget runs out."""
    mats = list(group)
    paths = zigzag_paths(model)
    poly = zigzag_polygon([p.slope for p in paths])
    frame = exact_invariant_frame(poly, mats)
    corner = (int(corner[0]), int(corner[1]))
    if corner not in frame:
        raise ValueError(f"{corner} is not a corner of {frame}")
    if not corner_chop_admissible(frame, mats, corner):
        raise ValueError(
            f"corner {corner} is joined to an orbit translate by a "
            f"primitive boundary segment"
        )
    if target is None:
        if legs != 1:
            raise ValueError("a cut with legs longer than one needs its target")
        try:
            rest = remove_corner_orbit(frame, mats, corner)
        except DegenerateError:
            raise WholePolygonError("chop removes the whole polygon") from None
        if len(rest) < 3 or polygon_area2(rest) == 0:
            raise WholePolygonError("chop removes the whole polygon")
        target = rest
    # The verifier compares normalized polygons, so the shift between the
    # invariant frame and the model frame drops out.
    want = normalize_translation(convex_hull(target))
    size = polygon_area2(frame) - polygon_area2(want)

    d_in, d_out = _corner_sides(frame, corner)
    # Paths of the two sides cross as often as the determinant of their
    # slopes says, and the seed's images at the other corners of the
    # orbit are apart: when they alone pass the size, nothing fits.
    det = abs(d_in[0] * d_out[1] - d_in[1] * d_out[0])
    if len(orbit(mats, corner)) * legs * legs * det > size:
        return
    if budget is not None:
        budget.charge(len(model.edges))
    fam_out = [p for p in paths if p.slope == _side_normal(d_out)]
    fam_in = [p for p in paths if p.slope == _side_normal(d_in)]
    seeds = []
    for sel_out in itertools.combinations(fam_out, legs):
        for sel_in in itertools.combinations(fam_in, legs):
            crossings = [
                set(z1.edge_ids()) & set(z2.edge_ids())
                for z1 in sel_out
                for z2 in sel_in
            ]
            if all(crossings):
                seeds.append(set().union(*crossings))
    tried = set()
    for orbits in _distinct_edge_orbits(model, mats):
        for seed in seeds:
            doomed = frozenset().union(*(orbits[e] for e in seed))
            if len(doomed) != size or doomed in tried:
                continue
            tried.add(doomed)
            cut = _try_cut(model, doomed, want, accept, budget)
            if cut is not None:
                yield cut


def corner_chop(
    model: DimerModel,
    group: Sequence[Mat2],
    corner: Vec,
    legs: int = 1,
    target: Optional[Sequence[Vec]] = None,
    accept=None,
    budget: Optional[Budget] = None,
) -> DimerModel:
    """The first outcome of corner_cuts.  Raises SearchExhaustedError
    when there is none."""
    for cut in corner_cuts(model, group, corner, legs, target, accept, budget):
        return cut
    raise SearchExhaustedError(
        f"no symmetric crossing resolution cuts corner {corner} with legs {legs}"
    )
