"""Lattice layer: matrices, finite subgroups, polygons.

Oracles used here:
 - hull membership brute force (every input point inside the reported hull,
   hull corners are input points, corners strictly convex),
 - Pick's theorem as an independent consistency check on lattice_points,
 - conjugator verification by direct matrix multiplication.
"""

import itertools
import math
import random

import pytest

from symdimer import lattice as L
from symdimer.lattice import Mat2, IDENTITY


def test_mat2_basics():
    m = Mat2(1, 2, 3, 4)
    assert m.det() == -2
    assert m.transpose() == Mat2(1, 3, 2, 4)
    u = Mat2(2, 1, 1, 1)
    assert u.mul(u.inverse()) == IDENTITY
    assert u.contragredient() == u.inverse().transpose()
    assert u.apply((1, 0)) == (2, 1)


def test_generate_group_c4():
    g = L.generate_group([Mat2(0, -1, 1, 0)])
    assert len(g) == 4
    assert IDENTITY in g and Mat2(-1, 0, 0, -1) in g


def test_generate_group_identity_only():
    assert L.generate_group([IDENTITY]) == (IDENTITY,)


def test_generate_group_not_finite():
    with pytest.raises(L.NotFiniteError):
        L.generate_group([Mat2(2, 1, 1, 1)])
    with pytest.raises(L.NotFiniteError):
        L.generate_group([Mat2(1, 1, 0, 1)])
    with pytest.raises(L.NotFiniteError):
        # Two reflections whose product is a shear.
        L.generate_group([Mat2(1, 0, 0, -1), Mat2(1, 0, 1, -1)])


def test_generate_group_rejects_non_unimodular():
    with pytest.raises(ValueError):
        L.generate_group([Mat2(2, 0, 0, 1)])


def test_canonical_orders():
    expected = {
        "TRIVIAL": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
        "R1": 2, "R2": 2, "D4_1": 4, "D4_2": 4,
        "D6_1": 6, "D6_2": 6, "D8": 8, "D12": 12,
    }
    for tag, n in expected.items():
        assert len(L.canonical_group(tag)) == n


def test_classify_canonical_identity_conjugator():
    for tag in L.GROUP_TAGS:
        cls = L.classify_group(L.canonical_group(tag))
        assert cls.tag == tag
        assert cls.conjugator == IDENTITY


def test_classify_spec_small_cases():
    cls = L.classify_group([IDENTITY, Mat2(-1, 0, 0, -1)])
    assert cls.tag == "C2"
    assert L.classify_group([IDENTITY]).tag == "TRIVIAL"
    # R2 conjugated by a shear still classifies as R2 with a verified conjugator.
    p = Mat2(1, 1, 0, 1)
    conj = [p.mul(g).mul(p.inverse()) for g in L.canonical_group("R2")]
    cls = L.classify_group(conj)
    assert cls.tag == "R2"
    q, qi = cls.conjugator, cls.conjugator.inverse()
    assert frozenset(qi.mul(g).mul(q) for g in conj) == frozenset(L.canonical_group("R2"))


def test_classify_random_conjugates():
    rng = random.Random(20240817)
    unis = [m for m in L._small_unimodular(3)]
    tags = [t for t in L.GROUP_TAGS if t != "TRIVIAL"]
    for _ in range(200):
        tag = rng.choice(tags)
        p = rng.choice(unis)
        pi = p.inverse()
        group = [p.mul(g).mul(pi) for g in L.canonical_group(tag)]
        cls = L.classify_group(group)
        assert cls.tag == tag, (tag, cls.tag, p)
        q, qi = cls.conjugator, cls.conjugator.inverse()
        assert frozenset(qi.mul(g).mul(q) for g in group) == frozenset(
            L.canonical_group(tag)
        )


def test_reduced_search_classifies_every_conjugate():
    """Every canonical group conjugated by each unimodular P with entries
    in [-4, 4], and every finite group generated by matrices with entries
    in [-1, 1] (what Gauss reduction leaves), classifies with a verified
    conjugator."""
    groups = [
        (tag, [p.mul(g).mul(p.inverse()) for g in L.canonical_group(tag)])
        for tag in L.GROUP_TAGS
        for p in L._small_unimodular(4)
    ]
    unit = list(L._small_unimodular(1))
    for a, b in itertools.combinations_with_replacement(unit, 2):
        try:
            groups.append((None, L.generate_group([a, b])))
        except L.NotFiniteError:
            pass
    for tag, group in groups:
        cls = L.classify_group(group)
        assert tag in (None, cls.tag)
        q, qi = cls.conjugator, cls.conjugator.inverse()
        assert frozenset(qi.mul(g).mul(q) for g in group) == frozenset(
            L.canonical_group(cls.tag)
        )


def test_d6_variants_are_distinguished():
    # The two order-6 dihedral classes share the rotation part; make sure
    # conjugating by anything never flips the reported tag.
    rng = random.Random(99)
    unis = [m for m in L._small_unimodular(2)]
    for tag in ("D6_1", "D6_2"):
        for _ in range(40):
            p = rng.choice(unis)
            group = [p.mul(g).mul(p.inverse()) for g in L.canonical_group(tag)]
            assert L.classify_group(group).tag == tag


# --- polygons ---------------------------------------------------------------


def _hull_oracle_check(points, hull):
    pts = set(points)
    # hull corners are input points
    assert set(hull) <= pts
    # every input point is inside
    for p in pts:
        assert L.contains_point(hull, p)
    # counterclockwise and strictly convex
    n = len(hull)
    for i in range(n):
        o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        assert L._cross(o, a, b) > 0
    # starts at the lexicographic minimum
    assert hull[0] == min(hull)


def test_hull_square():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    h = L.convex_hull(pts)
    assert h == ((0, 0), (1, 0), (1, 1), (0, 1))
    _hull_oracle_check(pts, h)


def test_hull_diamond_with_center():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    h = L.convex_hull(pts)
    assert set(h) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    _hull_oracle_check(pts, h)


def test_hull_degenerate():
    with pytest.raises(L.DegenerateError):
        L.convex_hull([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(L.DegenerateError):
        L.convex_hull([(0, 0), (1, 1)])


def test_hull_random_oracle():
    rng = random.Random(4)
    for _ in range(50):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(12)]
        try:
            h = L.convex_hull(pts)
        except L.DegenerateError:
            continue
        _hull_oracle_check(pts, h)
        # idempotence on its own lattice points
        assert L.convex_hull(L.lattice_points(h)) == h


def test_lattice_points_counts():
    tri = L.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert L.lattice_points(tri) == [(0, 0), (0, 1), (1, 0)]
    diamond = L.convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert len(L.lattice_points(diamond)) == 5
    square = L.convex_hull([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    assert len(L.lattice_points(square)) == 25


def test_pick_consistency_random():
    rng = random.Random(11)
    for _ in range(40):
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)]
        try:
            h = L.convex_hull(pts)
        except L.DegenerateError:
            continue
        area2 = L.polygon_area2(h)
        inside = len(L.lattice_points(h))
        boundary = len(L.primitive_side_segments(h))
        # Pick: Area = I + B/2 - 1  =>  points = Area + B/2 + 1
        assert 2 * inside == area2 + boundary + 2


def test_primitive_side_segments():
    tri = L.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert len(L.primitive_side_segments(tri)) == 3
    tri2 = L.convex_hull([(0, 0), (2, 0), (0, 2)])
    segs = L.primitive_side_segments(tri2)
    assert len(segs) == 6
    # concatenation walks the boundary once
    for (a, b), (c, d) in zip(segs, segs[1:] + segs[:1]):
        assert b == c
    diamond = L.convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert len(L.primitive_side_segments(diamond)) == 4


def test_is_invariant():
    diamond = L.convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    for tag in ("C4", "TRIVIAL"):
        for h in L.canonical_group(tag):
            assert L.apply_matrix_to_polygon(h, diamond) == diamond
    tri = L.convex_hull([(0, 0), (1, 0), (0, 1)])
    assert any(
        L.apply_matrix_to_polygon(h, tri) != tri for h in L.canonical_group("C2")
    )


def test_chop_admissible():
    square = L.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert L.corner_cut_admissible(square, L.canonical_group("C2"), (1, 1))
    assert L.corner_cut_admissible(square, L.canonical_group("C4"), (1, 1))
    diamond = L.convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert not L.corner_cut_admissible(diamond, L.canonical_group("C4"), (1, 0))
    tri = L.convex_hull([(0, 0), (3, 0), (0, 3)])
    assert L.corner_cut_admissible(tri, L.canonical_group("TRIVIAL"), (0, 0))


def test_normalize_translation():
    p1 = L.convex_hull([(0, 0), (1, 0), (0, 1)])
    p2 = L.convex_hull([(5, 5), (6, 5), (5, 6)])
    assert L.same_up_to_translation(p1, p2)
    assert not L.same_up_to_translation(
        p1, L.convex_hull([(0, 0), (1, 0), (1, 1)])
    )


def scanned_invariant_frame(poly, elements):
    """Reference for exact_invariant_frame: scan every shift in a box,
    smallest first, for one that solves h(sigma) - sigma = tau(h), then
    move it to the canonical solution along the kernel of the h - I."""
    base = L.convex_hull(poly)
    mats = list(elements)
    taus = []
    for h in mats:
        image = L.convex_hull(L.apply_matrix_to_polygon(h, base))
        if L.normalize_translation(image) != L.normalize_translation(base):
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
        itertools.product(range(-bound, bound + 1), repeat=2),
        key=lambda s: (abs(s[0]) + abs(s[1]), s),
    )
    sigma = next(
        (
            s
            for s in shifts
            if all(
                (h.apply(s)[0] - s[0], h.apply(s)[1] - s[1]) == tau for h, tau in taus
            )
        ),
        None,
    )
    if sigma is None:
        raise ValueError("no lattice shift makes the polygon exactly invariant")
    rows = [
        row
        for h in mats
        for row in ((h.a - 1, h.b), (h.c, h.d - 1))
        if row != (0, 0)
    ]
    anchor = min(base)
    if not rows:
        sigma = anchor
    elif all(r[0] * rows[0][1] - r[1] * rows[0][0] == 0 for r in rows):
        r0 = rows[0]
        g = math.gcd(r0[0], r0[1])
        v0 = (-r0[1] // g, r0[0] // g)
        start = (anchor[0] - sigma[0], anchor[1] - sigma[1])
        reach = abs(start[0]) + abs(start[1]) + 1
        t = min(
            range(-reach, reach + 1),
            key=lambda t: (
                abs(start[0] - t * v0[0]) + abs(start[1] - t * v0[1]),
                (start[0] - t * v0[0], start[1] - t * v0[1]),
            ),
        )
        sigma = (sigma[0] + t * v0[0], sigma[1] + t * v0[1])
    return L.translate_polygon(base, (-sigma[0], -sigma[1]))


def _frame_or_refusal(solve, poly, group):
    try:
        return solve(poly, group)
    except ValueError as exc:
        return str(exc)


def test_invariant_frame_agrees_with_the_scan():
    """Every hull of a union of orbits of points of [-1,1]^2 (the sweep
    polygons among them) and of one orbit of a point of [-2,2]^2, under
    each group and moved by a few translations; plus the hulls of points
    of [0,1]^2, most of which have no invariant frame."""
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    ring = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if 2 in (abs(x), abs(y))]
    unit = [(0, 0), (1, 0), (0, 1), (1, 1)]
    moves = [(0, 0), (1, 0), (0, -1), (-2, 3), (5, -4), (-7, -6)]
    seen = {"frame": 0, "refusal": 0}
    for tag in L.GROUP_TAGS:
        group = L.canonical_group(tag)
        orbits = sorted({L.orbit(group, p) for p in grid})
        seeds = [o for r in range(1, len(orbits) + 1) for o in itertools.combinations(orbits, r)]
        seeds += [[L.orbit(group, p)] for p in ring]
        seeds += [[c] for r in (3, 4) for c in itertools.combinations(unit, r)]
        polys = set()
        for seed in seeds:
            try:
                polys.add(L.convex_hull(p for o in seed for p in o))
            except L.DegenerateError:
                pass
        for poly in sorted(polys):
            for v in moves:
                moved = L.translate_polygon(poly, v)
                got = _frame_or_refusal(L.exact_invariant_frame, moved, group)
                assert got == _frame_or_refusal(scanned_invariant_frame, moved, group), (tag, moved)
                seen["refusal" if isinstance(got, str) else "frame"] += 1
    assert seen["frame"] > 6 * 238
    assert seen["refusal"] > 0
