"""Catalog models and end-to-end construction of symmetric models.

The catalog holds four hand-built consistent models whose characteristic
polygons are the unit triangle, the unit square, the unit diamond, and
the hexagon with vertices (1,0),(1,1),(0,1) and negatives.

synthesize plans in the caller's coordinates with the caller's group G.
A polygon is realized directly when it is the polygon of a catalog
model's sublattice cover under a marking change (a unimodular change of
torus coordinates) on which G acts fixing a face.  Otherwise the planner
searches breadth first for an envelope a few symmetric cuts above the
target that is realized directly, and cuts it down, under one work
budget.  A cut takes the orbit of one corner off, or, at a corner that
a reflection of the group fixes, a triangle with longer legs; these are
the symmetric form of the corner cuts of Gulotta, Properly ordered
dimers, R-charges, and an efficient inverse algorithm (arXiv:0807.3012).
verify_bundle re-checks a model from scratch.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dimer import (
    BLACK,
    WHITE,
    DimerModel,
    Edge,
    NoFixedFaceError,
    Node,
    NotSymmetricError,
    SymmetryAction,
    find_symmetry,
    fixed_face,
    frac_pt,
    validate,
)
from .lattice import (
    DegenerateError,
    GroupClassification,
    Mat2,
    Vec,
    apply_matrix_to_polygon,
    classify_generators,
    convex_hull,
    corner_chop_admissible,
    exact_invariant_frame,
    generate_group,
    lattice_points,
    normalize_translation,
    orbit,
    polygon_area2,
    primitive,
    remove_corner_orbit,
    same_up_to_translation,
)
from .matchings import characteristic_polygon
from .surgery import Budget, BudgetSpentError, corner_cuts, cover
from .zigzag import (
    NonPrimitiveSlopeError,
    NotClosedError,
    check_consistency,
    zigzag_paths,
    zigzag_polygon,
)

F = Fraction


def hexagonal_model() -> DimerModel:
    """One white and one black node, three edges; honeycomb tiling."""
    nodes = [
        Node(id=0, color=WHITE, pos=(F(2, 3), F(2, 3))),
        Node(id=1, color=BLACK, pos=(F(1, 3), F(1, 3))),
    ]
    edges = [
        Edge(id=0, white=0, black=1, offset=(0, 0)),
        Edge(id=1, white=0, black=1, offset=(1, 0)),
        Edge(id=2, white=0, black=1, offset=(0, 1)),
    ]
    return DimerModel(nodes, edges)


def square_model() -> DimerModel:
    """One white and one black node joined by four diagonal edges."""
    nodes = [
        Node(id=0, color=WHITE, pos=(F(1, 4), F(1, 4))),
        Node(id=1, color=BLACK, pos=(F(3, 4), F(3, 4))),
    ]
    edges = [
        Edge(id=0, white=0, black=1, offset=(0, 0)),
        Edge(id=1, white=0, black=1, offset=(-1, 0)),
        Edge(id=2, white=0, black=1, offset=(0, -1)),
        Edge(id=3, white=0, black=1, offset=(-1, -1)),
    ]
    return DimerModel(nodes, edges)


def octagon_model() -> DimerModel:
    """Eight nodes, twelve edges, two square and two octagonal faces.

    Characteristic polygon: the unit diamond.  Symmetric under the
    fourfold rotation and the axis reflections (translation zero).
    """
    e = F(1, 8)
    nodes = [
        Node(id=0, color=BLACK, pos=(5 * e, 1 * e)),
        Node(id=1, color=WHITE, pos=(5 * e, 7 * e)),
        Node(id=2, color=BLACK, pos=(3 * e, 7 * e)),
        Node(id=3, color=WHITE, pos=(3 * e, 1 * e)),
        Node(id=4, color=WHITE, pos=(1 * e, 5 * e)),
        Node(id=5, color=BLACK, pos=(1 * e, 3 * e)),
        Node(id=6, color=WHITE, pos=(7 * e, 3 * e)),
        Node(id=7, color=BLACK, pos=(7 * e, 5 * e)),
    ]
    edges = [
        Edge(id=0, white=1, black=0, offset=(0, 1)),
        Edge(id=1, white=1, black=2, offset=(0, 0)),
        Edge(id=2, white=3, black=2, offset=(0, -1)),
        Edge(id=3, white=3, black=0, offset=(0, 0)),
        Edge(id=4, white=4, black=5, offset=(0, 0)),
        Edge(id=5, white=6, black=5, offset=(1, 0)),
        Edge(id=6, white=6, black=7, offset=(0, 0)),
        Edge(id=7, white=4, black=7, offset=(-1, 0)),
        Edge(id=8, white=3, black=5, offset=(0, 0)),
        Edge(id=9, white=6, black=0, offset=(0, 0)),
        Edge(id=10, white=1, black=7, offset=(0, 0)),
        Edge(id=11, white=4, black=2, offset=(0, 0)),
    ]
    return DimerModel(nodes, edges)


def dodecagon_model() -> DimerModel:
    """Twelve nodes, eighteen edges, six faces; hexagonal characteristic
    polygon.  Symmetric under the sixfold rotation and the diagonal
    reflection (translation zero)."""
    s = F(1, 6)
    blacks = [
        (2 * s, 1 * s),
        (5 * s, 3 * s),
        (3 * s, 2 * s),
        (4 * s, 5 * s),
        (1 * s, 3 * s),
        (3 * s, 4 * s),
    ]
    whites = [
        (1 * s, 2 * s),
        (4 * s, 3 * s),
        (3 * s, 1 * s),
        (5 * s, 4 * s),
        (2 * s, 3 * s),
        (3 * s, 5 * s),
    ]
    nodes = [Node(id=i, color=BLACK, pos=blacks[i]) for i in range(6)]
    nodes += [Node(id=6 + i, color=WHITE, pos=whites[i]) for i in range(6)]
    ring = [
        (6, 0, (0, 0)),
        (6, 1, (-1, 0)),
        (7, 1, (0, 0)),
        (7, 2, (0, 0)),
        (8, 2, (0, 0)),
        (8, 3, (0, -1)),
        (9, 3, (0, 0)),
        (9, 4, (1, 0)),
        (10, 4, (0, 0)),
        (10, 5, (0, 0)),
        (11, 5, (0, 0)),
        (11, 0, (0, 1)),
    ]
    squares = [
        (11, 3, (0, 0)),
        (8, 0, (0, 0)),
        (6, 4, (0, 0)),
        (9, 1, (0, 0)),
        (7, 5, (0, 0)),
        (10, 2, (0, 0)),
    ]
    edges = [
        Edge(id=i, white=w, black=b, offset=o)
        for i, (w, b, o) in enumerate(ring + squares)
    ]
    return DimerModel(nodes, edges)


CATALOG = {
    "hexagonal": hexagonal_model,
    "square": square_model,
    "octagon": octagon_model,
    "dodecagon": dodecagon_model,
}

# Characteristic polygons of the catalog models.
BASE_CHAR = {
    "hexagonal": ((-1, 0), (0, 0), (0, 1)),
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "octagon": ((-1, 0), (0, -1), (1, 0), (0, 1)),
    "dodecagon": ((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)),
}


class ConstructError(Exception):
    pass


class NotInvariantError(ConstructError):
    """The polygon is not invariant under the requested group."""


class PlannerStuckError(ConstructError):
    """The planner could not reach the target polygon.

    Carries the trace of the steps completed before getting stuck, when
    the failure happened mid-synthesis."""

    def __init__(self, message: str, trace: Optional[List[dict]] = None):
        super().__init__(message)
        self.trace = list(trace or [])


# ---------------------------------------------------------------------------
# Coordinate transforms


def transform_model(model: DimerModel, linear: Mat2) -> DimerModel:
    """Change the torus marking by an integer unimodular map.

    Node positions move to linear*pos mod 1 and edge offsets are carried
    along; an orientation-reversing map also swaps the two node colors so
    the result stays in the same convention."""
    det = linear.det()
    if det not in (1, -1):
        raise ValueError("marking change must be unimodular")
    whole: Dict[int, Vec] = {}
    nodes = []
    for n in model.nodes:
        img = linear.apply(n.pos)
        pos = frac_pt(img)
        whole[n.id] = (int(img[0] - pos[0]), int(img[1] - pos[1]))
        color = n.color if det == 1 else (BLACK if n.color == WHITE else WHITE)
        nodes.append(Node(id=n.id, color=color, pos=pos))
    edges = []
    for e in model.edges:
        lo = linear.apply(e.offset)
        kw, kb = whole[e.white], whole[e.black]
        if det == 1:
            off = (lo[0] + kb[0] - kw[0], lo[1] + kb[1] - kw[1])
            edges.append(Edge(id=e.id, white=e.white, black=e.black, offset=off))
        else:
            off = (kw[0] - kb[0] - lo[0], kw[1] - kb[1] - lo[1])
            edges.append(Edge(id=e.id, white=e.black, black=e.white, offset=off))
    return DimerModel(nodes, edges)


# ---------------------------------------------------------------------------
# Planning

# Work budget of one synthesize call, in the edge units of surgery.Budget:
# about 13 s of CPU on a 2-vCPU VM.  The costliest polygon known to build,
# the D6_2 hexagon (-4,-3),(-3,-4),(3,-1),(4,1),(1,4),(-1,3), takes 65 686.
BUDGET = 75_000


def _edge_vectors(poly: Sequence[Vec]) -> List[Vec]:
    return [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(poly, poly[1:] + poly[:1])
    ]


def _markings(src: Sequence[Vec], dst: Sequence[Vec]) -> List[Mat2]:
    """Every unimodular M with M(src) == dst up to translation, sorted.

    M sends the first two edges of src onto two consecutive edges of dst,
    in order when det M = 1 and onto the reversed, negated edge sequence
    when det M = -1; each choice fixes M, solved in integers."""
    e0, e1 = _edge_vectors(src)[:2]
    den = e0[0] * e1[1] - e0[1] * e1[0]
    f = _edge_vectors(dst)
    out = set()
    for j in range(len(f)):
        for g0, g1 in (
            (f[j], f[(j + 1) % len(f)]),
            ((-f[j][0], -f[j][1]), (-f[j - 1][0], -f[j - 1][1])),
        ):
            # M = [g0 g1] [e0 e1]^-1
            num = (
                g0[0] * e1[1] - g1[0] * e0[1],
                g1[0] * e0[0] - g0[0] * e1[0],
                g0[1] * e1[1] - g1[1] * e0[1],
                g1[1] * e0[0] - g0[1] * e1[0],
            )
            if any(v % den for v in num):
                continue
            m = Mat2(*(v // den for v in num))
            if m.det() in (1, -1) and same_up_to_translation(
                apply_matrix_to_polygon(m, src), dst
            ):
                out.add(m)
    return sorted(out)


def _direct(
    envelope: Tuple[Vec, ...], group: Sequence[Mat2], budget: Budget
) -> Optional[Tuple[DimerModel, dict]]:
    """The first catalog cover, under a marking change, whose polygon in
    the exact invariant frame is the envelope and on which the group acts
    fixing a face; with its trace step, or None.  Each cover and marking
    checked is charged to the budget.

    Catalogs go in CATALOG order, sublattices by their Hermite normal form
    basis S = [[a, b], [0, d]] (0 <= b < a, a*d the index) in sorted
    order, and markings as _markings sorts them.  The cover's polygon is
    S^T applied to the catalog polygon, and the marking M acts on the
    model through its inverse transpose."""
    area = polygon_area2(envelope)
    for name, make in CATALOG.items():
        base = BASE_CHAR[name]
        if len(base) != len(envelope) or area % polygon_area2(base):
            continue
        index = area // polygon_area2(base)
        for a in range(1, index + 1):
            if index % a:
                continue
            for b in range(a):
                s = Mat2(a, b, 0, index // a)
                marks = _markings(apply_matrix_to_polygon(s.transpose(), base), envelope)
                if not marks:
                    continue
                raw = cover(make(), s)
                for m in marks:
                    budget.charge(len(raw.edges))
                    model = transform_model(raw, m.contragredient())
                    if exact_invariant_frame(_poly_of(model), group) != envelope:
                        continue
                    if _fixing_action(model, group) is None:
                        continue
                    step = {
                        "step": "direct",
                        "catalog": name,
                        "basis": s.rows(),
                        "marking": m.rows(),
                        "polygon": [list(v) for v in envelope],
                    }
                    return model, step
    return None


def _outer_lattice_points(poly: Sequence[Vec]) -> List[Vec]:
    """Lattice points outside the polygon at lattice distance at most one
    from the line of every side: the only points a corner chop can have
    taken off."""
    sides = []
    for (x, y), d in zip(poly, _edge_vectors(poly)):
        n = (primitive(d)[1], -primitive(d)[0])
        sides.append((n, n[0] * x + n[1] * y + 1))
    # The region's corners: the crossings of its side lines that it holds.
    corners = []
    for (n1, k1), (n2, k2) in itertools.combinations(sides, 2):
        den = n1[0] * n2[1] - n1[1] * n2[0]
        if den:
            x = F(k1 * n2[1] - k2 * n1[1], den)
            y = F(n1[0] * k2 - n2[0] * k1, den)
            if all(n[0] * x + n[1] * y <= k for n, k in sides):
                corners.append((x, y))
    xs, ys = zip(*corners)
    inside = set(lattice_points(poly))
    out = []
    for x in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            if (x, y) not in inside and all(
                n[0] * x + n[1] * y <= k for n, k in sides
            ):
                out.append((x, y))
    return out


def _mirror_apexes(
    poly: Tuple[Vec, ...], group: Sequence[Mat2]
) -> List[Tuple[Vec, int]]:
    """For each side whose ends some group element swaps, the lattice
    point where the two neighbouring sides, extended, meet beyond it,
    with the lattice length t of the legs from there to the side's ends:
    the apex of a triangle with legs t whose cut leaves the side.  Such
    a side cannot be made by cutting single corners, since the corners
    a one-leg cut leaves there are swapped and joined by a primitive
    segment, which no admissible chop can cut again.

    Only apexes whose leg directions span the lattice are kept.  At any
    other corner each pair of paths crosses several times; on the
    radius-3 hexagons no such cut verified, and each cost hundreds of
    candidates."""
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if not any(h.apply(a) == b and h.apply(b) == a for h in group):
            continue
        prev, nxt = poly[i - 1], poly[(i + 2) % n]
        u = primitive((a[0] - prev[0], a[1] - prev[1]))
        v = primitive((b[0] - nxt[0], b[1] - nxt[1]))
        # a + t*u == b + t*v
        den = u[0] * v[1] - u[1] * v[0]
        num = (b[0] - a[0]) * v[1] - (b[1] - a[1]) * v[0]
        if abs(den) == 1 and num * den > 0:
            t = num * den
            out.append(((a[0] + t * u[0], a[1] + t * u[1]), t))
    return out


def _envelopes_above(
    poly: Tuple[Vec, ...], group: Sequence[Mat2]
) -> Dict[Tuple[Vec, ...], Tuple[Vec, int]]:
    """The invariant polygons E one symmetric cut above the exactly
    invariant polygon, E = hull(poly and the orbit of a lattice point p)
    with p a corner of E, admissible for a chop.  Either p is a lattice
    point outside poly, E has no lattice points but poly's and p's
    orbit, and chopping that orbit off E (one leg) leaves poly; or p is
    a mirror apex of poly and E is poly with the orbit of its triangle
    added, which a cut with legs t takes off again.  Maps each E, moved
    to its exact invariant frame, to the corner to cut, moved with it,
    and the legs."""
    inside = set(lattice_points(poly))
    area = polygon_area2(poly)
    grown = []
    for p in _outer_lattice_points(poly):
        orb = orbit(group, p)
        env = convex_hull(poly + orb)
        if (
            p in env
            and set(lattice_points(env)) == inside.union(orb)
            and corner_chop_admissible(env, group, p)
            and remove_corner_orbit(env, group, p) == poly
        ):
            grown.append((env, p, 1))
    for p, t in _mirror_apexes(poly, group):
        orb = orbit(group, p)
        env = convex_hull(poly + orb)
        # the orbit's triangles lie outside poly and apart exactly when
        # the areas add up
        if (
            p in env
            and polygon_area2(env) == area + len(orb) * t * t
            and corner_chop_admissible(env, group, p)
        ):
            grown.append((env, p, t))
    out: Dict[Tuple[Vec, ...], Tuple[Vec, int]] = {}
    for env, p, t in grown:
        framed = exact_invariant_frame(env, group)
        corner = (p[0] + framed[0][0] - env[0][0], p[1] + framed[0][1] - env[0][1])
        out[framed] = min((corner, t), out.get(framed, (corner, t)))
    return out


def _fixing_action(model: DimerModel, group: Sequence[Mat2]) -> Optional[SymmetryAction]:
    try:
        return find_symmetry(model, group, require_fixed_face=True)
    except (NotSymmetricError, NoFixedFaceError):
        return None


def _chop_down(
    model: DimerModel, chops, group: Sequence[Mat2], budget: Budget
) -> Optional[Tuple[DimerModel, List[dict]]]:
    """Follow the recorded cuts (corner, legs, polygon left) down from a
    realized envelope, depth first over the outcomes of each cut: every
    outcome keeps a face fixed under the group and must land in the
    expected exact invariant frame.  None when no sequence of outcomes
    reaches the end."""
    if not chops:
        return model, []
    (corner, legs, below), rest = chops[0], chops[1:]
    step = {
        "step": "chop",
        "corner": list(corner),
        "legs": legs,
        "polygon": [list(v) for v in below],
    }
    for cut in corner_cuts(
        model,
        group,
        corner,
        legs,
        target=below,
        accept=lambda m: _fixing_action(m, group) is not None,
        budget=budget,
    ):
        if exact_invariant_frame(_poly_of(cut), group) != below:
            continue
        done = _chop_down(cut, rest, group, budget)
        if done is not None:
            return done[0], [step] + done[1]
    return None


def _plan(
    target: Tuple[Vec, ...], group: Sequence[Mat2], budget: Budget
) -> Optional[Tuple[DimerModel, List[dict]]]:
    """Breadth-first search over envelopes of the target, by number of
    cuts, then by area and polygon, along every path of cuts that
    reaches each envelope: the first envelope that is realized directly
    and cuts down to the target along one of its paths wins.  Each
    envelope is realized at most once, and each envelope and path
    visited is charged to the budget.  None when no envelope is left to
    try; BudgetSpentError when the budget runs out first."""
    direct: Dict[Tuple[Vec, ...], Optional[Tuple[DimerModel, dict]]] = {}
    level = {target: [()]}
    while level:
        order = sorted(level, key=lambda e: (polygon_area2(e), e))
        for env in order:
            budget.charge()
            if env not in direct:
                direct[env] = _direct(env, group, budget)
            found = direct[env]
            for chops in level[env] if found is not None else ():
                budget.charge()
                done = _chop_down(found[0], chops, group, budget)
                if done is not None:
                    return done[0], [found[1]] + done[1]
        grown: Dict[Tuple[Vec, ...], list] = {}
        for env in order:
            for up, (corner, legs) in _envelopes_above(env, group).items():
                grown.setdefault(up, []).extend(
                    ((corner, legs, env),) + chops for chops in level[env]
                )
        level = grown
    return None


# ---------------------------------------------------------------------------
# Synthesis


@dataclass
class SymmetricDimer:
    """A consistent dimer model with a group action realizing a polygon.

    polygon is the characteristic polygon in the caller's coordinates, in
    the translate that every group element fixes."""

    model: DimerModel
    action: SymmetryAction
    fixed_face: int
    polygon: Tuple[Vec, ...]
    trace: List[dict]
    classification: GroupClassification


def _poly_of(model: DimerModel) -> Tuple[Vec, ...]:
    return zigzag_polygon([p.slope for p in zigzag_paths(model)])


def synthesize(polygon: Sequence[Vec], generators: Sequence[Mat2]) -> SymmetricDimer:
    """Build a consistent dimer model whose characteristic polygon is the
    given invariant polygon, with an action of the generated group G that
    fixes a face.

    Everything happens in the caller's coordinates with G itself.  The
    polygon P is moved to its exact invariant frame.  A breadth-first
    search then looks for an envelope E, k symmetric cuts above P, that
    is a catalog cover under a marking change with a face-fixing action
    of G (k = 0 first: P itself), and cuts E down to P along a recorded
    path, depth first over the outcomes of each cut, each keeping a face
    fixed.  A cut takes a corner orbit off (one leg) or a triangle with
    longer legs at a corner that a reflection fixes.  All planning
    shares one work budget of BUDGET edge units.  The trace lists the
    steps: classify, direct, one chop per cut, done.  Raises
    NotInvariantError when P is not G-invariant and PlannerStuckError
    (carrying the trace so far) when the budget runs out or no envelope
    is left."""
    cls = classify_generators(list(generators))
    group = cls.elements
    trace: List[dict] = [
        {"step": "classify", "tag": cls.tag, "order": cls.order}
    ]
    try:
        target = exact_invariant_frame(convex_hull(polygon), group)
    except ValueError as exc:
        raise NotInvariantError(str(exc)) from exc
    budget = Budget(BUDGET)
    try:
        found = _plan(target, group, budget)
    except BudgetSpentError as exc:
        raise PlannerStuckError(f"planner {exc}", trace) from exc
    if found is None:
        raise PlannerStuckError(
            f"no envelope of the polygon chops down to it "
            f"({budget.spent} of {budget.limit} edge units spent)",
            trace,
        )
    model, steps = found
    trace.extend(steps)
    action = find_symmetry(model, group, require_fixed_face=True)
    trace.append({"step": "done", "polygon": [list(v) for v in target]})
    return SymmetricDimer(
        model=model,
        action=action,
        fixed_face=fixed_face(action),
        polygon=target,
        trace=trace,
        classification=cls,
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass
class Report:
    """Outcome of the independent checks on a model.

    Fields are None when the check did not apply or was skipped; ok
    summarizes the ones that ran."""

    valid_dimer: bool
    consistent: Optional[bool]
    zigzag_polygon: Optional[Tuple[Vec, ...]]
    char_polygon: Optional[Tuple[Vec, ...]]
    char_matches_zigzag: Optional[bool]
    symmetric: Optional[bool]
    polygon_match: Optional[bool]
    fixed_face: Optional[int]
    notes: List[str]

    @property
    def ok(self) -> bool:
        if not self.valid_dimer or not self.consistent:
            return False
        for flag in (self.char_matches_zigzag, self.symmetric, self.polygon_match):
            if flag is False:
                return False
        return True


def verify_bundle(
    model: DimerModel,
    action=None,
    polygon: Optional[Sequence[Vec]] = None,
) -> Report:
    """Re-check a model from scratch: well-formedness, consistency, the
    two polygon computations, the group action, and the target polygon.

    The characteristic polygon comes from the matching oracle, so it is
    compared with the zigzag polygon on every valid model that has a
    perfect matching and a 2-dimensional height hull, whatever its number
    of matchings.  action may be a SymmetryAction or a sequence of
    generator matrices; every check reports rather than raises."""
    notes: List[str] = []
    res = validate(model)
    valid = res.ok
    if not valid:
        notes.extend(res.failures())
    zz = None
    consistent = None
    if valid:
        try:
            zz = _poly_of(model)
        except (NotClosedError, NonPrimitiveSlopeError, DegenerateError) as exc:
            notes.append(f"zigzag polygon unavailable: {exc}")
        try:
            consistent = check_consistency(model).consistent
        except (NotClosedError, NonPrimitiveSlopeError, DegenerateError) as exc:
            consistent = False
            notes.append(f"consistency check failed to run: {exc}")
    char = None
    char_match = None
    if valid:
        try:
            char = normalize_translation(characteristic_polygon(model))
        except (ValueError, DegenerateError) as exc:
            notes.append(f"characteristic polygon unavailable: {exc}")
        if char is not None and zz is not None:
            char_match = same_up_to_translation(char, zz)
    symmetric = None
    found = None
    mats = None
    if action is not None and valid:
        if isinstance(action, SymmetryAction):
            mats = action.elements
        else:
            mats = generate_group(list(action))
        try:
            found = find_symmetry(model, mats, require_fixed_face=True)
        except NoFixedFaceError:
            found = find_symmetry(model, mats)
        except NotSymmetricError:
            found = None
        symmetric = found is not None
    ff = None
    if found is not None:
        fixed = found.fixed_faces()
        if fixed:
            ff = min(fixed)
        else:
            notes.append("group action present but no face is fixed")
    polygon_match = None
    if polygon is not None:
        want = convex_hull(polygon)
        if zz is None:
            polygon_match = False
        elif mats is not None and symmetric:
            try:
                frame = exact_invariant_frame(zz, mats)
                want_frame = exact_invariant_frame(want, mats)
                polygon_match = tuple(frame) == tuple(want_frame)
            except ValueError:
                polygon_match = False
            if polygon_match and not same_up_to_translation(zz, want):
                polygon_match = False
        else:
            polygon_match = same_up_to_translation(zz, want)
    return Report(
        valid_dimer=valid,
        consistent=consistent,
        zigzag_polygon=zz,
        char_polygon=char,
        char_matches_zigzag=char_match,
        symmetric=symmetric,
        polygon_match=polygon_match,
        fixed_face=ff,
        notes=notes,
    )
