"""Exact lattice geometry and finite subgroups of GL(2,Z).

Everything here is integer arithmetic: 2x2 unimodular matrices, finite
subgroup generation and classification up to GL(2,Z)-conjugacy, and
convex lattice polygons (hull, lattice points, boundary segments,
invariance, corner-orbit removal).

Polygons are tuples of integer points, counterclockwise, starting at the
lexicographically smallest corner.  Matrices act on polygon (N-space)
coordinates directly; the induced action on torus coordinates elsewhere
in the package is the inverse transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, NamedTuple, Sequence, Tuple

Vec = Tuple[int, int]


class NotFiniteError(Exception):
    """The generated subgroup of GL(2,Z) is not finite."""


class DegenerateError(Exception):
    """Points do not span a 2-dimensional polygon."""


class Mat2(NamedTuple):
    """Integer 2x2 matrix [[a, b], [c, d]] acting on column vectors."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "Mat2":
        (a, b), (c, d) = rows
        return Mat2(int(a), int(b), int(c), int(d))

    def rows(self) -> List[List[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def mul(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def apply(self, v):
        """Apply to a point (works for int or Fraction coordinates)."""
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det not in (1, -1):
            raise ValueError("only unimodular matrices can be inverted exactly")
        return Mat2(self.d * det, -self.b * det, -self.c * det, self.a * det)

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def contragredient(self) -> "Mat2":
        """Inverse transpose: the induced action on the dual lattice."""
        return self.inverse().transpose()

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)


IDENTITY = Mat2.identity()

# Canonical representatives of the conjugacy classes of finite subgroups
# of GL(2,Z): cyclic rotation groups, the two reflection classes, and the
# dihedral combinations.
CANONICAL_GENERATORS = {
    "TRIVIAL": (),
    "C2": (Mat2(-1, 0, 0, -1),),
    "C3": (Mat2(0, -1, 1, -1),),
    "C4": (Mat2(0, -1, 1, 0),),
    "C6": (Mat2(1, -1, 1, 0),),
    "R1": (Mat2(1, 0, 0, -1),),
    "R2": (Mat2(0, 1, 1, 0),),
    "D4_1": (Mat2(1, 0, 0, -1), Mat2(-1, 0, 0, -1)),
    "D4_2": (Mat2(0, 1, 1, 0), Mat2(-1, 0, 0, -1)),
    "D6_1": (Mat2(0, -1, 1, -1), Mat2(1, 0, 1, -1)),
    "D6_2": (Mat2(0, -1, 1, -1), Mat2(0, 1, 1, 0)),
    "D8": (Mat2(0, -1, 1, 0), Mat2(1, 0, 0, -1)),
    "D12": (Mat2(1, -1, 1, 0), Mat2(0, 1, 1, 0)),
}

GROUP_TAGS = tuple(CANONICAL_GENERATORS)


def _element_order(g: Mat2) -> int:
    """Order of a finite-order element, from (det, trace).

    Raises NotFiniteError for elements of infinite order.
    """
    det, tr = g.det(), g.trace()
    if det == 1:
        if tr == 2:
            if g == IDENTITY:
                return 1
        elif tr == -2:
            if g == IDENTITY.neg():
                return 2
        elif tr == -1:
            return 3
        elif tr == 0:
            return 4
        elif tr == 1:
            return 6
    elif det == -1:
        if tr == 0:
            return 2
    raise NotFiniteError(f"element {g.rows()} has infinite order")


def generate_group(generators: Iterable[Mat2], cap: int = 12) -> Tuple[Mat2, ...]:
    """Close a generator list under multiplication.

    Returns the sorted element tuple, or raises NotFiniteError if the
    closure exceeds `cap` elements or contains an infinite-order element.
    """
    gens = []
    for g in generators:
        g = g if isinstance(g, Mat2) else Mat2.from_rows(g)
        if g.det() not in (1, -1):
            raise ValueError(f"generator {g.rows()} is not in GL(2,Z)")
        _element_order(g)
        gens.append(g)
    elements = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = e.mul(g)
                if p not in elements:
                    _element_order(p)
                    elements.add(p)
                    if len(elements) > cap:
                        raise NotFiniteError(
                            f"closure exceeds {cap} elements; subgroup is not "
                            "one of the finite types"
                        )
                    nxt.append(p)
        frontier = nxt
    return tuple(sorted(elements))


def canonical_group(tag: str) -> Tuple[Mat2, ...]:
    return generate_group(CANONICAL_GENERATORS[tag])


_CANONICAL_SETS = None


def _canonical_sets():
    global _CANONICAL_SETS
    if _CANONICAL_SETS is None:
        _CANONICAL_SETS = {tag: frozenset(canonical_group(tag)) for tag in GROUP_TAGS}
    return _CANONICAL_SETS


@dataclass(frozen=True)
class GroupClassification:
    """A finite subgroup with its conjugacy tag and a verified conjugator.

    conjugator P satisfies P^-1 * g * P in canonical_group(tag) for every
    element g, and the conjugated set equals the canonical group exactly.
    """

    tag: str
    elements: Tuple[Mat2, ...]
    conjugator: Mat2

    @property
    def order(self) -> int:
        return len(self.elements)


# (order, rotation subgroup order) -> candidate tags
_SIGNATURES = {
    (1, 1): ("TRIVIAL",),
    (2, 2): ("C2",),
    (2, 1): ("R1", "R2"),
    (3, 3): ("C3",),
    (4, 4): ("C4",),
    (4, 2): ("D4_1", "D4_2"),
    (6, 6): ("C6",),
    (6, 3): ("D6_1", "D6_2"),
    (8, 4): ("D8",),
    (12, 6): ("D12",),
}


def _invariant_form(elements: Sequence[Mat2]) -> Tuple[int, int, int]:
    """Coefficients (p, q, r) of the averaged form sum g^T g = [[p,q],[q,r]]."""
    p = q = r = 0
    for g in elements:
        p += g.a * g.a + g.c * g.c
        q += g.a * g.b + g.c * g.d
        r += g.b * g.b + g.d * g.d
    return p, q, r


def _gauss_reduce(p: int, q: int, r: int) -> Mat2:
    """Lagrange-Gauss reduction of Z^2 under the positive form [[p,q],[q,r]].

    Returns unimodular U whose columns are a reduced basis.
    """
    # Basis vectors as columns of U; Gram entries recomputed exactly.
    u1, u2 = (1, 0), (0, 1)

    def val(v, w):
        return p * v[0] * w[0] + q * (v[0] * w[1] + v[1] * w[0]) + r * v[1] * w[1]

    while True:
        if val(u1, u1) > val(u2, u2):
            u1, u2 = u2, u1
        g11 = val(u1, u1)
        g12 = val(u1, u2)
        # Nearest integer to g12/g11 (ties toward zero).
        t = Fraction(g12, g11)
        m = int(t)
        frac = t - m
        if frac > Fraction(1, 2):
            m += 1
        elif frac < Fraction(-1, 2):
            m -= 1
        u2 = (u2[0] - m * u1[0], u2[1] - m * u1[1])
        if val(u2, u2) >= val(u1, u1):
            break
    return Mat2(u1[0], u2[0], u1[1], u2[1])


def _small_unimodular(bound: int):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c in (1, -1):
                        yield Mat2(a, b, c, d)


def classify_group(elements: Iterable[Mat2]) -> GroupClassification:
    """Identify the conjugacy class of a finite subgroup of GL(2,Z).

    The input must be a full group (output of generate_group).  The tag
    plus a verified conjugator P (canonical group == P^-1 G P) is
    returned.  The conjugator search reduces the lattice under the
    averaged invariant form first, so arbitrarily large conjugates of the
    canonical groups are handled.
    """
    group = tuple(sorted(set(e if isinstance(e, Mat2) else Mat2.from_rows(e) for e in elements)))
    if IDENTITY not in group:
        raise ValueError("element list does not contain the identity")
    gset = set(group)
    for g in group:
        if g.det() not in (1, -1):
            raise ValueError(f"element {g.rows()} is not in GL(2,Z)")
        for h in group:
            if g.mul(h) not in gset:
                raise ValueError("element list is not closed under multiplication")
    rot = sum(1 for g in group if g.det() == 1)
    sig = (len(group), rot)
    if sig not in _SIGNATURES:
        raise ValueError(f"no finite subgroup of GL(2,Z) has signature {sig}")
    candidates = _SIGNATURES[sig]
    targets = _canonical_sets()

    for tag in candidates:
        if frozenset(group) == targets[tag]:
            return GroupClassification(tag=tag, elements=group, conjugator=IDENTITY)

    u = _gauss_reduce(*_invariant_form(group))
    u_inv = u.inverse()
    reduced = [u_inv.mul(g).mul(u) for g in group]

    for bound in (1, 2, 3):
        for p0 in _small_unimodular(bound):
            p0_inv = p0.inverse()
            conj = frozenset(p0_inv.mul(g).mul(p0) for g in reduced)
            for tag in candidates:
                if conj == targets[tag]:
                    P = u.mul(p0)
                    return GroupClassification(tag=tag, elements=group, conjugator=P)
    # Unreachable: each reduced element keeps the norms of the reduced
    # basis, so its entries lie in [-1, 1], and the bounded search above
    # classifies every finite group with such entries (see the tests).
    raise ValueError("finite subgroup did not classify; this should be impossible")


def classify_generators(generators: Iterable) -> GroupClassification:
    """Convenience: generate_group then classify_group."""
    return classify_group(generate_group(generators))


# ---------------------------------------------------------------------------
# Convex lattice polygons


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Vec]) -> Tuple[Vec, ...]:
    """Convex hull, counterclockwise from the lexicographically smallest
    corner, collinear points dropped.  DegenerateError if the hull is not
    2-dimensional.
    """
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if len(pts) < 3:
        raise DegenerateError("fewer than 3 distinct points")
    lower: List[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateError("points are collinear")
    return tuple(hull)


def polygon_area2(poly: Sequence[Vec]) -> int:
    """Twice the (positive) area, by the shoelace formula."""
    s = 0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s)


def contains_point(poly: Sequence[Vec], pt) -> bool:
    """Point inside or on the boundary (exact; works for rational points)."""
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        cross = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if cross < 0:
            return False
    return True


def lattice_points(poly: Sequence[Vec]) -> List[Vec]:
    """All integer points inside or on the polygon, sorted."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    out = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if contains_point(poly, (x, y)):
                out.append((x, y))
    return out


def primitive(v: Vec) -> Vec:
    g = gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


def primitive_side_segments(poly: Sequence[Vec]) -> List[Tuple[Vec, Vec]]:
    """Unit boundary segments between consecutive boundary lattice points,
    in counterclockwise boundary order starting at the first corner."""
    segs = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        d = (b[0] - a[0], b[1] - a[1])
        g = gcd(d[0], d[1])
        step = (d[0] // g, d[1] // g)
        cur = a
        for _ in range(g):
            nxt = (cur[0] + step[0], cur[1] + step[1])
            segs.append((cur, nxt))
            cur = nxt
    return segs


def boundary_lattice_count(poly: Sequence[Vec]) -> int:
    return len(primitive_side_segments(poly))


def apply_matrix_to_polygon(m: Mat2, poly: Sequence[Vec]) -> Tuple[Vec, ...]:
    return convex_hull(m.apply(p) for p in poly)


def translate_polygon(poly: Sequence[Vec], v: Vec) -> Tuple[Vec, ...]:
    return convex_hull((p[0] + v[0], p[1] + v[1]) for p in poly)


def normalize_translation(poly: Sequence[Vec]) -> Tuple[Vec, ...]:
    """Translate so the lexicographically smallest corner is the origin."""
    m = min(poly)
    return translate_polygon(poly, (-m[0], -m[1]))


def same_up_to_translation(p1: Sequence[Vec], p2: Sequence[Vec]) -> bool:
    return normalize_translation(p1) == normalize_translation(p2)


def is_invariant(poly: Sequence[Vec], elements: Iterable[Mat2]) -> bool:
    """Whether h(polygon) == polygon as a point set for every h."""
    base = convex_hull(poly)
    return all(apply_matrix_to_polygon(h, base) == base for h in elements)


def orbit(elements: Iterable[Mat2], pt: Vec) -> Tuple[Vec, ...]:
    return tuple(sorted(set(h.apply(pt) for h in elements)))


def remove_corner_orbit(
    poly: Sequence[Vec], elements: Iterable[Mat2], corner: Vec
) -> Tuple[Vec, ...]:
    """Hull of the polygon's lattice points minus the orbit of a corner."""
    base = convex_hull(poly)
    corner = (int(corner[0]), int(corner[1]))
    if corner not in base:
        raise ValueError(f"{corner} is not a corner of the polygon")
    orb = set(orbit(elements, corner))
    remaining = [p for p in lattice_points(base) if p not in orb]
    return convex_hull(remaining)


def corner_chop_admissible(
    poly: Sequence[Vec], elements: Iterable[Mat2], corner: Vec
) -> bool:
    """No group translate of the corner is joined to it by a primitive
    boundary segment (the admissibility condition for a symmetric chop)."""
    base = convex_hull(poly)
    corner = (int(corner[0]), int(corner[1]))
    if corner not in base:
        raise ValueError(f"{corner} is not a corner of the polygon")
    orb = set(orbit(elements, corner))
    for a, b in primitive_side_segments(base):
        if a == corner and b in orb:
            return False
        if b == corner and a in orb:
            return False
    return True


def exact_invariant_frame(
    poly: Sequence[Vec], elements: Iterable[Mat2]
) -> Tuple[Vec, ...]:
    """Translate the polygon so it is exactly invariant under the group.

    The input must be invariant up to translation: for every element h there
    is an integer vector tau(h) with h(poly) == poly + tau(h).  This solves
    the compatibility system h(sigma) - sigma = tau(h) for a lattice shift
    sigma and returns poly - sigma, which satisfies h(P) == P exactly.
    Raises ValueError when no lattice shift works.
    """
    base = convex_hull(poly)
    mats = list(elements)
    taus = []
    for h in mats:
        image = convex_hull(apply_matrix_to_polygon(h, base))
        if normalize_translation(image) != normalize_translation(base):
            raise ValueError("polygon is not invariant up to translation")
        anchor_img = min(image)
        anchor = min(base)
        taus.append((h, (anchor_img[0] - anchor[0], anchor_img[1] - anchor[1])))
    lo = min(min(p[0] for p in base), min(p[1] for p in base))
    hi = max(max(p[0] for p in base), max(p[1] for p in base))
    spread = max(abs(t[0]) for _, t in taus) if taus else 0
    spread = max(spread, max(abs(t[1]) for _, t in taus) if taus else 0)
    bound = (hi - lo) + spread + 1
    shifts = sorted(
        (
            (s1, s2)
            for s1 in range(-bound, bound + 1)
            for s2 in range(-bound, bound + 1)
        ),
        key=lambda s: (abs(s[0]) + abs(s[1]), s),
    )
    sigma = None
    for s1, s2 in shifts:
        ok = True
        for h, tau in taus:
            img = h.apply((s1, s2))
            if (img[0] - s1, img[1] - s2) != tau:
                ok = False
                break
        if ok:
            sigma = (s1, s2)
            break
    if sigma is None:
        raise ValueError("no lattice shift makes the polygon exactly invariant")
    # Every shift in sigma plus the lattice of group-invariant vectors also
    # works; pick the representative canonically so that translates of the
    # same polygon always land on the same frame.
    rows = []
    for h in mats:
        for row in ((h.a - 1, h.b), (h.c, h.d - 1)):
            if row != (0, 0):
                rows.append(row)
    anchor = min(base)
    if not rows:
        sigma = anchor
    else:
        r0 = rows[0]
        if all(r[0] * r0[1] - r[1] * r0[0] == 0 for r in rows):
            g = gcd(abs(r0[0]), abs(r0[1]))
            v0 = (-r0[1] // g, r0[0] // g)
            start = (anchor[0] - sigma[0], anchor[1] - sigma[1])
            reach = abs(start[0]) + abs(start[1]) + 1
            best = None
            for t in range(-reach, reach + 1):
                pt = (start[0] - t * v0[0], start[1] - t * v0[1])
                key = (abs(pt[0]) + abs(pt[1]), pt)
                if best is None or key < best[0]:
                    best = (key, t)
            t = best[1]
            sigma = (sigma[0] + t * v0[0], sigma[1] + t * v0[1])
    return translate_polygon(base, (-sigma[0], -sigma[1]))
