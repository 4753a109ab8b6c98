"""Catalog models and end-to-end construction of symmetric models.

The catalog holds four hand-built consistent models whose characteristic
polygons are the unit triangle, the unit square, the unit diamond, and
the hexagon with vertices (1,0),(1,1),(0,1) and negatives.  Larger
polygons are produced by covering a catalog model and cutting corners.

synthesize drives the whole pipeline: classify the group, conjugate the
polygon into the canonical frame, pick an enveloping polygon realized by
a catalog cover, cut the envelope's corner triangles symmetrically, then
chop corner orbits until the polygon matches, and finally transport the
result back to the caller's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    symmetry_actions,
    validate,
)
from .lattice import (
    GROUP_TAGS,
    DegenerateError,
    GroupClassification,
    Mat2,
    Vec,
    canonical_group,
    classify_generators,
    contains_point,
    convex_hull,
    corner_chop_admissible,
    exact_invariant_frame,
    generate_group,
    is_invariant,
    lattice_points,
    normalize_translation,
    orbit,
    remove_corner_orbit,
    same_up_to_translation,
    translate_polygon,
)
from .matchings import characteristic_polygon
from .surgery import SurgeryError, corner_chop, cover, gulotta_cut
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


class UnsupportedGroupError(ConstructError):
    """No envelope construction is known for the group tag."""


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
# Envelope selection


@dataclass(frozen=True)
class PreCut:
    """One symmetric triangle cut: equal legs at every corner of the orbit
    of the named corner, with the polygon expected afterwards."""

    corner: Vec
    k: int
    m: int
    after: Tuple[Vec, ...]


@dataclass
class EnvelopePlan:
    """How to realize an enveloping polygon of the target.

    The base recipe covers a catalog model by the sublattice spanned by
    the rows of the basis; base_polygon is the cover's polygon placed in
    the frame the target polygon lives in, and shift moves the raw
    (origin-cornered) cover polygon onto it.  The pre-cuts then carve
    the envelope out of the base polygon."""

    envelope: Tuple[Vec, ...]
    catalog: str
    basis: Mat2
    shift: Vec
    pre_cuts: Tuple[PreCut, ...]
    base_polygon: Tuple[Vec, ...]


def _clip(poly: Sequence[Vec], constraints) -> Tuple[Vec, ...]:
    """Hull of the polygon's lattice points satisfying f.p <= c for every
    ((fx, fy), c) constraint."""
    kept = [
        p
        for p in lattice_points(poly)
        if all(f[0] * p[0] + f[1] * p[1] <= c for f, c in constraints)
    ]
    return convex_hull(kept)


def _ceil_half(v: int) -> int:
    return -(-v // 2)


def select_envelope(
    polygon: Sequence[Vec], group: Union[GroupClassification, str]
) -> EnvelopePlan:
    """Choose an invariant enveloping polygon containing the target, with
    a catalog cover recipe and the symmetric pre-cuts that carve it.

    The polygon must be exactly invariant under the canonical group of
    the tag; synthesize conjugates and recenters before calling this."""
    tag = group.tag if isinstance(group, GroupClassification) else str(group)
    if tag not in GROUP_TAGS:
        raise UnsupportedGroupError(f"unknown group tag {tag!r}")
    delta = convex_hull(polygon)
    canon = canonical_group(tag)
    if not is_invariant(delta, canon):
        raise NotInvariantError(
            f"polygon is not invariant under the canonical {tag} group"
        )

    def sup(fx: int, fy: int) -> int:
        return max(fx * x + fy * y for x, y in delta)

    pre: List[PreCut] = []
    if tag in ("TRIVIAL", "C2"):
        if tag == "TRIVIAL":
            x0, x1 = -sup(-1, 0), sup(1, 0)
            y0, y1 = -sup(0, -1), sup(0, 1)
        else:
            x1, y1 = sup(1, 0), sup(0, 1)
            x0, y0 = -x1, -y1
        env = convex_hull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
        start = env
        cat = "square"
        basis = Mat2.from_rows(((x1 - x0, 0), (0, y1 - y0)))
    elif tag in ("R1", "R2", "D4_1", "D4_2"):
        # Mirror groups run on diamond covers of the fourfold-symmetric
        # catalog model, whose reflections all fix a face; the diamond is
        # recentred along the group's invariant directions and the chop
        # loop carves everything below it.
        if tag == "R1":
            lo, hi = -sup(-1, 0), sup(1, 0)
            center = ((lo + hi) // 2, 0)
        elif tag == "R2":
            spans = [(x + y) // 2 for x, y in delta]
            best = None
            for c in range(min(spans), max(spans) + 1):
                radius = max(abs(x - c) + abs(y - c) for x, y in delta)
                if best is None or radius < best[0]:
                    best = (radius, c)
            center = (best[1], best[1])
        else:
            center = (0, 0)
        cx, cy = center
        n = max(abs(x - cx) + abs(y - cy) for x, y in delta)
        cat = "octagon"
        basis = Mat2.from_rows(((n, 0), (0, n)))
        env = convex_hull(
            [(cx + n, cy), (cx, cy + n), (cx - n, cy), (cx, cy - n)]
        )
        start = env
    elif tag in ("C4", "D8"):
        n = max(sup(1, 1), sup(1, -1), sup(-1, 1), sup(-1, -1))
        cat = "octagon"
        basis = Mat2.from_rows(((n, 0), (0, n)))
        env = convex_hull([(n, 0), (0, n), (-n, 0), (0, -n)])
        start = env
        if tag == "D8":
            k = max(sup(1, 0), sup(0, 1), sup(-1, 0), sup(0, -1))
            if k < n:
                box = [((1, 0), k), ((-1, 0), k), ((0, 1), k), ((0, -1), k)]
                after = _clip(env, box)
                pre.append(PreCut(corner=(-n, 0), k=n - k, m=n - k, after=after))
                env = after
    elif tag in ("C3", "D6_1"):
        n = max(sup(1, 0), sup(-1, 1), sup(0, -1))
        cat = "hexagonal"
        basis = Mat2.from_rows(((3 * n, 0), (0, 3 * n)))
        env = convex_hull([(n, -n), (n, 2 * n), (-2 * n, -n)])
        start = env
        if tag == "D6_1":
            t = min(
                2 * n - sup(0, 1),
                2 * n - sup(1, -1),
                2 * n - sup(-1, 0),
                (3 * n) // 2,
            )
            if t > 0:
                cuts = [
                    ((0, 1), 2 * n - t),
                    ((1, -1), 2 * n - t),
                    ((-1, 0), 2 * n - t),
                ]
                after = _clip(env, cuts)
                pre.append(PreCut(corner=(-2 * n, -n), k=t, m=t, after=after))
                env = after
    else:  # C6, D6_2, D12
        n = max(
            sup(1, 0), sup(0, 1), sup(-1, 0), sup(0, -1), sup(1, -1), sup(-1, 1)
        )
        cat = "dodecagon"
        basis = Mat2.from_rows(((n, 0), (0, n)))
        hexn = convex_hull(
            [(n, 0), (n, n), (0, n), (-n, 0), (-n, -n), (0, -n)]
        )
        env = hexn
        start = env
        if tag in ("D6_2", "D12"):
            k = min(n, _ceil_half(max(sup(2, -1), sup(-1, -1), sup(-1, 2))))
            l = min(n, _ceil_half(max(sup(1, 1), sup(-2, 1), sup(1, -2))))
            cons_k = [((2, -1), 2 * k), ((-1, -1), 2 * k), ((-1, 2), 2 * k)]
            cons_l = [((1, 1), 2 * l), ((-2, 1), 2 * l), ((1, -2), 2 * l)]
            if tag == "D12":
                if k != l:
                    raise PlannerStuckError(
                        f"sixfold mirror cuts disagree (k={k}, l={l})"
                    )
                if k < n:
                    after = _clip(hexn, cons_k + cons_l)
                    legs = 2 * (n - k)
                    pre.append(
                        PreCut(corner=(-n, -n), k=legs, m=legs, after=after)
                    )
                    env = after
            else:
                if k < n:
                    stage = _clip(hexn, cons_k)
                    legs = 2 * (n - k)
                    pre.append(
                        PreCut(corner=(-n, -n), k=legs, m=legs, after=stage)
                    )
                    env = stage
                if l < n:
                    stage = _clip(hexn, cons_k + cons_l)
                    legs = 2 * (n - l)
                    pre.append(
                        PreCut(corner=(-n, 0), k=legs, m=legs, after=stage)
                    )
                    env = stage

    # The cover's polygon is the catalog polygon mapped by the transpose
    # of the sublattice basis; start is the same polygon placed in the
    # frame the target lives in.
    cover_poly = normalize_translation(
        convex_hull(
            [
                (basis.a * x + basis.c * y, basis.b * x + basis.d * y)
                for x, y in BASE_CHAR[cat]
            ]
        )
    )
    base = convex_hull(start)
    shift = (base[0][0] - cover_poly[0][0], base[0][1] - cover_poly[0][1])
    if tuple(translate_polygon(cover_poly, shift)) != tuple(base):
        raise PlannerStuckError(
            "cover polygon does not match the planned envelope frame"
        )
    for p in lattice_points(delta):
        if not contains_point(env, p):
            raise PlannerStuckError(
                f"envelope {env} does not contain the target point {p}"
            )
    return EnvelopePlan(
        envelope=env,
        catalog=cat,
        basis=basis,
        shift=shift,
        pre_cuts=tuple(pre),
        base_polygon=base,
    )


# ---------------------------------------------------------------------------
# Synthesis


@dataclass
class SymmetricDimer:
    """A consistent dimer model with a group action realizing a polygon.

    polygon is the characteristic polygon in the caller's coordinates."""

    model: DimerModel
    action: SymmetryAction
    fixed_face: int
    polygon: Tuple[Vec, ...]
    trace: List[dict]
    classification: GroupClassification


def _poly_of(model: DimerModel) -> Tuple[Vec, ...]:
    return zigzag_polygon([p.slope for p in zigzag_paths(model)])


def _align(frame, reference, mats) -> Optional[Vec]:
    """Translation t with reference + t == frame, valid only when t is
    fixed by every group element."""
    t = (frame[0][0] - reference[0][0], frame[0][1] - reference[0][1])
    if tuple(translate_polygon(reference, t)) != tuple(frame):
        return None
    for h in mats:
        if h.apply(t) != t:
            return None
    return t


def synthesize(polygon: Sequence[Vec], generators: Sequence[Mat2]) -> SymmetricDimer:
    """Build a consistent symmetric dimer model whose characteristic
    polygon is exactly the given invariant polygon.

    The group is classified and the problem moved to the canonical frame;
    there an enveloping polygon is realized as a sublattice cover of a
    catalog model, corner triangles are cut symmetrically, and corner
    orbits are chopped until the polygon matches; the result is carried
    back through the conjugation."""
    delta_caller = convex_hull(polygon)
    cls = classify_generators(list(generators))
    canon = canonical_group(cls.tag)
    p = cls.conjugator
    p_inv = p.inverse()
    trace: List[dict] = [
        {"step": "classify", "tag": cls.tag, "order": cls.order}
    ]
    delta_raw = convex_hull([p_inv.apply(v) for v in delta_caller])
    try:
        delta_can = exact_invariant_frame(delta_raw, canon)
    except ValueError as exc:
        raise NotInvariantError(str(exc)) from exc
    plan = select_envelope(delta_can, cls.tag)
    trace.append(
        {
            "step": "envelope",
            "catalog": plan.catalog,
            "basis": [[plan.basis.a, plan.basis.b], [plan.basis.c, plan.basis.d]],
            "envelope": [list(v) for v in plan.envelope],
            "pre_cuts": len(plan.pre_cuts),
        }
    )
    model = cover(CATALOG[plan.catalog](), plan.basis)
    try:
        find_symmetry(model, canon)
    except NotSymmetricError as exc:
        raise PlannerStuckError("cover model lost the group action", trace) from exc
    frame = exact_invariant_frame(_poly_of(model), canon)
    t = _align(frame, plan.base_polygon, canon)
    if t is None:
        raise PlannerStuckError("cover polygon sits in an unexpected frame", trace)
    target = translate_polygon(delta_can, t)

    def _keeps_fixed_face(m: DimerModel) -> bool:
        try:
            find_symmetry(m, canon, require_fixed_face=True)
        except (NotSymmetricError, NoFixedFaceError):
            return False
        return True

    def _resync(expected) -> None:
        nonlocal frame, t, target
        try:
            find_symmetry(model, canon)
        except NotSymmetricError as exc:
            raise PlannerStuckError("group action lost after a cut", trace) from exc
        frame = exact_invariant_frame(_poly_of(model), canon)
        drift = _align(frame, expected, canon)
        if drift is None:
            raise PlannerStuckError("polygon drifted out of reach after a cut", trace)
        t = (t[0] + drift[0], t[1] + drift[1])
        target = translate_polygon(target, drift)

    for cut in plan.pre_cuts:
        corner_frame = (cut.corner[0] + t[0], cut.corner[1] + t[1])
        norm = normalize_translation(frame)
        sigma = (norm[0][0] - frame[0][0], norm[0][1] - frame[0][1])
        corner_norm = (corner_frame[0] + sigma[0], corner_frame[1] + sigma[1])
        expected = translate_polygon(cut.after, t)
        expected_norm = translate_polygon(expected, sigma)
        cut_model = None
        last_err: Optional[Exception] = None
        for act in symmetry_actions(model, canon):
            try:
                cut_model = gulotta_cut(
                    model,
                    corner_norm,
                    k=cut.k,
                    m=cut.m,
                    expected=expected_norm,
                    action=act,
                    accept=_keeps_fixed_face,
                )
                break
            except SurgeryError as exc:
                last_err = exc
        if cut_model is None:
            # Pre-cuts are an optimization; when one cannot be realized the
            # corner chops below still carve down to the target.
            trace.append(
                {
                    "step": "cut-skipped",
                    "corner": list(cut.corner),
                    "legs": cut.k,
                    "reason": str(last_err),
                }
            )
            break
        model = cut_model
        _resync(expected)
        trace.append(
            {
                "step": "cut",
                "corner": list(cut.corner),
                "legs": cut.k,
                "polygon": [list(v) for v in translate_polygon(frame, (-t[0], -t[1]))],
            }
        )

    chop_budget = [48]

    def _chop_search(mdl, frm, tt, tgt):
        """Depth-first search over chop orders; each chop strictly shrinks
        the polygon, so the recursion terminates.  Returns the finished
        state and the trace steps, or None when this branch dead-ends."""
        if tuple(frm) == tuple(tgt):
            return mdl, []
        tpts = set(lattice_points(tgt))
        candidates = [
            c
            for c in frm
            if not (set(orbit(canon, c)) & tpts)
            and corner_chop_admissible(frm, canon, c)
        ]
        for c in sorted(candidates):
            if chop_budget[0] <= 0:
                return None
            expected = remove_corner_orbit(frm, list(canon), c)
            chopped = None
            for act in symmetry_actions(mdl, canon):
                if chop_budget[0] <= 0:
                    return None
                chop_budget[0] -= 1
                try:
                    chopped = corner_chop(
                        mdl, act, c, target=expected, accept=_keeps_fixed_face
                    )
                    break
                except SurgeryError:
                    continue
            if chopped is None:
                continue
            new_frame = exact_invariant_frame(_poly_of(chopped), canon)
            drift = _align(new_frame, expected, canon)
            if drift is None:
                continue
            new_t = (tt[0] + drift[0], tt[1] + drift[1])
            new_target = translate_polygon(tgt, drift)
            res = _chop_search(chopped, new_frame, new_t, new_target)
            if res is not None:
                final, steps = res
                steps.insert(
                    0,
                    {
                        "step": "chop",
                        "corner": list(c),
                        "polygon": [
                            list(v)
                            for v in translate_polygon(
                                new_frame, (-new_t[0], -new_t[1])
                            )
                        ],
                    },
                )
                return final, steps
        return None

    if tuple(frame) != tuple(target):
        found = _chop_search(model, frame, t, target)
        if found is None:
            raise PlannerStuckError(
                "no sequence of corner chops reaches the target polygon", trace
            )
        model, steps = found
        trace.extend(steps)

    if p.a != 1 or p.b != 0 or p.c != 0 or p.d != 1:
        # The polygon transforms by the contragredient of the marking
        # change, so conjugating by the inverse transpose realizes p.
        lin = Mat2.from_rows(((p_inv.a, p_inv.c), (p_inv.b, p_inv.d)))
        model = transform_model(model, lin)
        trace.append(
            {"step": "transport", "linear": [[lin.a, lin.b], [lin.c, lin.d]]}
        )
    try:
        out_action = find_symmetry(model, cls.elements, require_fixed_face=True)
    except (NotSymmetricError, NoFixedFaceError) as exc:
        raise PlannerStuckError(
            f"finished model has no face-fixing group action: {exc}", trace
        ) from exc
    out_poly = convex_hull([p.apply(v) for v in delta_can])
    out_frame = exact_invariant_frame(_poly_of(model), cls.elements)
    if _align(out_frame, out_poly, cls.elements) is None:
        raise PlannerStuckError("final polygon sits in an unexpected frame", trace)
    ff = fixed_face(out_action)
    trace.append({"step": "done", "polygon": [list(v) for v in out_poly]})
    return SymmetricDimer(
        model=model,
        action=out_action,
        fixed_face=ff,
        polygon=out_poly,
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
