"""Covers, edge deletion, re-embedding, and symmetric corner cuts.

A cover lists the cosets of its deck lattice and the coset jump of each
lifted edge in ints; only the lifted node positions are rational.

A corner cut deletes the edges where zigzag paths of the corner's two
sides cross (one path of each side, or as many of each as the cut's
legs are long), together with their whole edge orbit under the group,
collapses the divalent nodes this leaves behind, and computes a fresh
harmonic embedding.  The caller names the cut with what it has proved:
the model's polygon in its exact invariant frame, an admissible corner,
the legs and the polygon left.  Every candidate outcome is verified from
scratch (geometry, consistency, zigzag polygon) before it is yielded,
once per source model: the verdict is kept on the model, and each
decision is charged to a work budget.  corner_cuts yields the outcomes
that verify in a fixed order; a caller that needs more of an outcome,
such as a fixed face, tests each one itself.
"""

import heapq
import itertools
import math
from fractions import Fraction
from typing import (
    Dict,
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
    place,
    remove_divalent,
    symmetry_actions,
    validate,
)
from .lattice import (
    Mat2,
    normalize_translation,
    orbit,
    polygon_area2,
    primitive,
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


# ---------------------------------------------------------------------------
# Covers


def _parallelogram_points(s: Mat2) -> List[Vec]:
    """Representatives of Z^2 modulo the sublattice spanned by the columns
    of s, in sorted order: the lattice points v of the parallelogram
    s*[0,1)^2, that is with floor(adj(s) v / det s) = (0, 0)."""
    k = s.det()
    adj = Mat2(s.d, -s.b, -s.c, s.a)
    xs = (0, s.a, s.b, s.a + s.b)
    ys = (0, s.c, s.d, s.c + s.d)
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(u // k == 0 for u in adj.apply((x, y)))
    ]


def cover(model: DimerModel, s: Mat2) -> DimerModel:
    """Pullback of the model along the torus cover with deck lattice s*Z^2,
    written in unit-torus coordinates.

    A singular matrix raises SingularBasisError.  A basis with negative
    determinant is first canonicalized by negating its second column,
    which spans the same sublattice.  The characteristic polygon of the
    result is the transpose of the (canonicalized) basis applied to the
    original polygon.  Coset jumps are floor(adj(s) v / det s) in ints;
    only the lifts adj(s) (pos + r) / det s are rationals."""
    if s.det() == 0:
        raise SingularBasisError("sublattice matrix is singular")
    if s.det() < 0:
        s = Mat2.from_rows(((s.a, -s.b), (s.c, -s.d)))
    k = s.det()
    adj = Mat2(s.d, -s.b, -s.c, s.a)
    reps = _parallelogram_points(s)
    index = {r: i for i, r in enumerate(reps)}
    nodes = []
    for n in model.nodes:
        for ci, r in enumerate(reps):
            u = adj.apply((n.pos[0] + r[0], n.pos[1] + r[1]))
            lift = (Fraction(u[0], k), Fraction(u[1], k))
            nodes.append((n.id * k + ci, n.color, lift))

    edges = []
    for e in model.edges:
        for ci, r in enumerate(reps):
            target = (r[0] + e.offset[0], r[1] + e.offset[1])
            u = adj.apply(target)
            jump = (u[0] // k, u[1] // k)
            back = s.apply(jump)
            r2 = (target[0] - back[0], target[1] - back[1])
            edges.append(
                Edge(
                    id=e.id * k + ci,
                    white=e.white * k + ci,
                    black=e.black * k + index[r2],
                    offset=jump,
                )
            )
    return place(nodes, edges)


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
    in `Fraction`s, then the pin is added back and `place` reduces the
    lifts, so the result is harmonic with respect to its own offsets.
    Each integer row is a positive multiple of the row a `Fraction`
    elimination would hold, so the pivot order, the singular pivots and
    the solution are the same.

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
    lifts = [
        (nid, model.node(nid).color, (pin[0] + disp[i][0], pin[1] + disp[i][1]))
        for i, nid in enumerate(ids)
    ]
    try:
        return place(lifts, model.edges)
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
    paths = zigzag_paths(cut)
    try:
        got = zigzag_polygon([p.slope for p in paths])
    except (NotClosedError, NonPrimitiveSlopeError):
        return None
    if got != target:
        return None
    if not check_consistency(cut, paths).consistent:
        return None
    return cut


def corner_cuts(
    model: DimerModel,
    group: Sequence[Mat2],
    frame: Tuple[Vec, ...],
    corner: Vec,
    legs: int,
    target: Tuple[Vec, ...],
    budget: Budget,
) -> Iterator[DimerModel]:
    """Each way to cut the triangle with two legs of the given lattice
    length off one polygon corner, and off its whole orbit, symmetrically
    under an action of the group (a tuple of all its elements), leaving
    a translate of the target.

    The caller has proved what the chop needs: frame is the model's
    zigzag polygon in its exact invariant frame, corner is a corner of
    frame admissible for a chop (lattice.corner_cut_admissible), and the
    chop leaves the target.  A corner not in frame raises ValueError; a
    wrong frame or target yields nothing.

    A candidate deletes, for one choice of `legs` zigzag paths of each of
    the corner's two sides that all cross one another, the crossing
    edges together with their whole edge orbit under one action.  A
    consistent model has as many faces as twice its polygon's area, and
    each deleted edge merges two faces, so only candidates that delete
    exactly the area difference are tried, in the order of the actions
    and the path choices.  Each outcome that verifies is yielded; its
    zigzag polygon is a translate of the target.

    A chop meets the same candidate again under other actions of the
    group, and a repeated chop of the same model object meets all of
    them again, so each verdict is decided once per (model, deleted
    edges, target) and kept on the source model in model._cuts.
    Gathering the candidates, and each candidate decided, is charged to
    the budget; BudgetSpentError when it runs out."""
    # The verifier compares normalized polygons, so the shift between the
    # invariant frame and the model frame drops out.
    want = normalize_translation(target)
    size = polygon_area2(frame) - polygon_area2(want)

    d_in, d_out = _corner_sides(frame, corner)
    # Paths of the two sides cross as often as the determinant of their
    # slopes says, and the seed's images at the other corners of the
    # orbit are apart: when they alone pass the size, nothing fits.
    det = abs(d_in[0] * d_out[1] - d_in[1] * d_out[0])
    if len(orbit(group, corner)) * legs * legs * det > size:
        return
    budget.charge(len(model.edges))
    paths = zigzag_paths(model)
    fam_out = [set(p.edge_ids()) for p in paths if p.slope == _side_normal(d_out)]
    fam_in = [set(p.edge_ids()) for p in paths if p.slope == _side_normal(d_in)]
    seeds = []
    for sel_out in itertools.combinations(fam_out, legs):
        for sel_in in itertools.combinations(fam_in, legs):
            crossings = [z1 & z2 for z1 in sel_out for z2 in sel_in]
            if all(crossings):
                seeds.append(set().union(*crossings))
    tried = set()
    for action in symmetry_actions(model, group):
        orbits = action.edge_orbits()
        for seed in seeds:
            doomed = frozenset().union(*(orbits[e] for e in seed))
            if len(doomed) != size or doomed in tried:
                continue
            tried.add(doomed)
            key = (doomed, want)
            if key not in model._cuts:
                budget.charge(len(model.edges))
                model._cuts[key] = _cut(model, doomed, want)
            if model._cuts[key] is not None:
                yield model._cuts[key]
