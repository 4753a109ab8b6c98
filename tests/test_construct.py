"""Symmetric synthesis, its case-set ratchet, and bundle verification."""

import itertools

import pytest

from symdimer import construct, matchings
from symdimer.construct import (
    CATALOG,
    NotInvariantError,
    PlannerStuckError,
    hexagonal_model,
    square_model,
    synthesize,
    transform_model,
    verify_bundle,
)
from symdimer.dimer import DimerModel, faces, validate
from symdimer.lattice import (
    GROUP_TAGS,
    DegenerateError,
    Mat2,
    canonical_group,
    convex_hull,
    is_invariant,
    orbit,
    polygon_area2,
    same_up_to_translation,
)
from symdimer.matchings import (
    apply_to_matching,
    invariant_matching_at_origin,
    is_perfect_matching,
)
from symdimer.surgery import cover
from symdimer.zigzag import check_consistency, zigzag_paths, zigzag_polygon


def mat(a, b, c, d):
    return Mat2.from_rows(((a, b), (c, d)))


def poly_of(model):
    return zigzag_polygon([p.slope for p in zigzag_paths(model)])


def test_catalog_models_are_consistent_with_expected_face_counts():
    expected_faces = {"hexagonal": 1, "square": 2, "octagon": 4, "dodecagon": 6}
    for name, make in CATALOG.items():
        model = make()
        assert validate(model).ok, name
        assert check_consistency(model).consistent, name
        assert len(faces(model)) == expected_faces[name], name
        # face count equals twice the polygon area
        assert polygon_area2(poly_of(model)) == expected_faces[name], name


def test_synthesize_central_square():
    sq = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    sd = synthesize(sq, list(canonical_group("C2")))
    assert sd.polygon == convex_hull(sq)
    assert sd.fixed_face is not None
    assert len(faces(sd.model)) == 8
    rep = verify_bundle(sd.model, action=sd.action, polygon=sq)
    assert rep.ok
    assert rep.polygon_match


def test_synthesize_threefold_triangle_needs_no_cuts():
    tri = [(1, -1), (1, 2), (-2, -1)]
    sd = synthesize(tri, list(canonical_group("C3")))
    assert len(faces(sd.model)) == 9
    assert [s["step"] for s in sd.trace] == ["classify", "direct", "done"]
    assert verify_bundle(sd.model, action=sd.action, polygon=tri).ok


def test_synthesize_full_hexagon_symmetry():
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    sd = synthesize(hexagon, list(canonical_group("D12")))
    assert sd.classification.tag == "D12"
    assert len(faces(sd.model)) == 6
    assert verify_bundle(sd.model, action=sd.action, polygon=hexagon).ok


@pytest.mark.parametrize(
    "tag,polygon,corners",
    [
        ("R1", [(-1, -1), (0, -1), (0, 1), (-1, 1)], [[2, 0], [0, -2]]),
        ("R2", [(-1, 0), (0, -1), (1, -1), (-1, 1)], [[0, 0]]),
    ],
)
def test_synthesize_chops_a_direct_envelope(tag, polygon, corners):
    sd = synthesize(polygon, list(canonical_group(tag)))
    steps = [s["step"] for s in sd.trace]
    assert steps == ["classify", "direct"] + ["chop"] * len(corners) + ["done"]
    assert [s["corner"] for s in sd.trace if s["step"] == "chop"] == corners
    assert len(faces(sd.model)) == polygon_area2(convex_hull(polygon))
    assert verify_bundle(sd.model, action=sd.action, polygon=polygon).ok


def test_synthesize_cuts_long_legs_at_a_mirror_corner():
    """The D6_2 hexagon with sides 2 and 1: the envelope is a triangle,
    and the cut at its corners, which a reflection fixes, has legs 2."""
    hexagon = [(-3, -1), (-1, -3), (1, -2), (3, 2), (2, 3), (-2, 1)]
    sd = synthesize(hexagon, list(canonical_group("D6_2")))
    chops = [s for s in sd.trace if s["step"] == "chop"]
    assert [s["legs"] for s in chops] == [2, 1]
    rep = verify_bundle(sd.model, action=sd.action, polygon=hexagon)
    assert rep.ok and rep.polygon_match and rep.fixed_face is not None


def test_planner_budget_bounds_the_search(monkeypatch):
    """Every envelope visited is charged, so a tiny budget ends even a
    search that would find a cover: the rectangle needs two chops."""
    monkeypatch.setattr(construct, "BUDGET", 3)
    with pytest.raises(PlannerStuckError, match="planner work budget spent"):
        synthesize([(-1, -1), (0, -1), (0, 1), (-1, 1)], list(canonical_group("R1")))


def test_synthesize_mirror_hexagon_by_chops():
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    sd = synthesize(hexagon, list(canonical_group("R2")))
    assert len(faces(sd.model)) == 6
    assert sd.fixed_face is not None
    assert verify_bundle(sd.model, action=sd.action, polygon=hexagon).ok


@pytest.mark.parametrize("tag", ["C4", "D8"])
def test_synthesize_fourfold_square_is_direct(tag):
    sq = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    sd = synthesize(sq, list(canonical_group(tag)))
    assert [s["step"] for s in sd.trace] == ["classify", "direct", "done"]
    assert len(faces(sd.model)) == 8
    assert verify_bundle(sd.model, action=sd.action, polygon=sq).ok


def test_synthesize_rejects_non_invariant_polygon():
    with pytest.raises(NotInvariantError):
        synthesize([(0, 0), (1, 0), (0, 1)], list(canonical_group("C4")))


def test_synthesize_conjugated_generators_directly():
    p = mat(1, 1, 0, 1)
    p_inv = mat(1, -1, 0, 1)
    rot = mat(0, -1, 1, 0)
    gen = p.mul(rot).mul(p_inv)
    diamond = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    target = convex_hull([p.apply(v) for v in diamond])
    sd = synthesize(target, [gen])
    assert sd.classification.tag == "C4"
    assert [s["step"] for s in sd.trace] == ["classify", "direct", "done"]
    assert sd.polygon == target
    # the direct step names the cover and the marking that give the model
    step = sd.trace[1]
    raw = cover(CATALOG[step["catalog"]](), Mat2.from_rows(step["basis"]))
    marking = Mat2.from_rows(step["marking"])
    assert transform_model(raw, marking.contragredient()) == sd.model
    assert step["polygon"] == [list(v) for v in target]
    rep = verify_bundle(sd.model, action=sd.action, polygon=target)
    assert rep.ok


def test_synthesize_orientation_reversing_conjugates_directly():
    p = mat(-1, -2, 0, 1)
    rot = mat(0, -1, 1, -1)
    gen = p.mul(rot).mul(p)
    tri = [(1, -1), (1, 2), (-2, -1)]
    target = convex_hull([p.apply(v) for v in tri])
    sd = synthesize(target, [gen])
    assert sd.classification.tag == "C3"
    assert sd.classification.conjugator.det() == -1
    assert [s["step"] for s in sd.trace] == ["classify", "direct", "done"]
    assert sd.polygon == target
    rep = verify_bundle(sd.model, action=sd.action, polygon=target)
    assert rep.ok


def test_transform_model_reflects_and_stays_consistent():
    model = hexagonal_model()
    swapped = transform_model(model, mat(0, 1, 1, 0))
    assert validate(swapped).ok
    assert check_consistency(swapped).consistent
    want = [(y, x) for x, y in poly_of(model)]
    assert same_up_to_translation(poly_of(swapped), want)


def test_transform_model_rejects_non_unimodular_maps():
    with pytest.raises(ValueError):
        transform_model(square_model(), mat(2, 0, 0, 1))


def test_verify_bundle_flags_polygon_mismatch():
    model = hexagonal_model()
    rep = verify_bundle(model, polygon=[(0, 0), (2, 0), (2, 2), (0, 2)])
    assert rep.polygon_match is False
    assert not rep.ok


def test_verify_bundle_without_action_checks_the_model_alone():
    rep = verify_bundle(square_model())
    assert rep.ok
    assert rep.symmetric is None
    assert rep.polygon_match is None


@pytest.mark.parametrize("name,a,d", [("square", 4, 4), ("hexagonal", 1, 15)])
def test_verify_bundle_checks_models_with_many_matchings(name, a, d, monkeypatch):
    # 32 and 30 nodes, both past 20 000 perfect matchings; the oracle
    # finds the polygon without listing them.
    model = cover(CATALOG[name](), Mat2(a, 0, 0, d))

    def refuse(*args, **kwargs):
        raise AssertionError("verify_bundle enumerated the matchings")

    monkeypatch.setattr(matchings, "enumerate_matchings", refuse)
    rep = verify_bundle(model)
    assert rep.char_matches_zigzag is True
    assert rep.char_polygon == rep.zigzag_polygon == poly_of(model)
    assert not any("capped" in note for note in rep.notes)
    assert rep.ok


# verify_bundle on each catalog model without one edge:
# (model, edge) -> (valid, consistent, char polygon, char matches zigzag, notes)
_OFFSET = ("faces with nonzero offset [0, 1]", "Euler count V-E+F = 2 != 0")
_FEW = ("zigzag polygon unavailable: fewer than 3 distinct points",)


def _slope(s):
    return (f"zigzag polygon unavailable: slope {s} is not primitive",)


EDGE_DELETION_REPORTS = {
    ("hexagonal", 0): (False, None, None, None, _OFFSET),
    ("hexagonal", 1): (False, None, None, None, _OFFSET),
    ("hexagonal", 2): (False, None, None, None, _OFFSET),
    ("square", 0): (True, True, ((0, 0), (1, 0), (1, 1)), True, ()),
    ("square", 1): (True, True, ((0, 0), (1, -1), (1, 0)), True, ()),
    ("square", 2): (True, True, ((0, 0), (1, 0), (0, 1)), True, ()),
    ("square", 3): (True, True, ((0, 0), (1, 1), (0, 1)), True, ()),
    ("octagon", 0): (True, False, ((0, 0), (1, 1), (0, 2)), None, _slope((-2, 0))),
    ("octagon", 1): (True, False, ((0, 0), (2, 0), (1, 1)), None, _slope((0, -2))),
    ("octagon", 2): (True, False, ((0, 0), (1, -1), (1, 1)), None, _slope((2, 0))),
    ("octagon", 3): (True, False, ((0, 0), (1, -1), (2, 0)), None, _slope((0, 2))),
    ("octagon", 4): (True, False, ((0, 0), (1, -1), (1, 1)), None, _slope((2, 0))),
    ("octagon", 5): (True, False, ((0, 0), (1, -1), (2, 0)), None, _slope((0, 2))),
    ("octagon", 6): (True, False, ((0, 0), (1, 1), (0, 2)), None, _slope((-2, 0))),
    ("octagon", 7): (True, False, ((0, 0), (2, 0), (1, 1)), None, _slope((0, -2))),
    ("octagon", 8): (True, False, ((0, 0), (1, 0), (0, 1)), None, _FEW),
    ("octagon", 9): (True, False, ((0, 0), (1, 0), (1, 1)), None, _FEW),
    ("octagon", 10): (True, False, ((0, 0), (1, -1), (1, 0)), None, _FEW),
    ("octagon", 11): (True, False, ((0, 0), (1, 1), (0, 1)), None, _FEW),
    ("dodecagon", 0): (True, False, ((0, 0), (1, 0), (1, 1), (0, 1)), True, ()),
    ("dodecagon", 1): (True, False, ((0, 0), (2, 0), (2, 1), (1, 1)), True, ()),
    ("dodecagon", 2): (True, False, ((0, 0), (1, 0), (2, 1), (1, 1)), True, ()),
    ("dodecagon", 3): (True, False, ((0, 0), (2, 2), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 4): (True, False, ((0, 0), (1, 1), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 5): (True, False, ((0, 0), (1, 0), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 6): (True, False, ((0, 0), (1, 0), (1, 1), (0, 1)), True, ()),
    ("dodecagon", 7): (True, False, ((0, 0), (1, 0), (2, 1), (0, 1)), True, ()),
    ("dodecagon", 8): (True, False, ((0, 0), (1, 0), (2, 1), (1, 1)), True, ()),
    ("dodecagon", 9): (True, False, ((0, 0), (1, 0), (2, 1), (2, 2)), True, ()),
    ("dodecagon", 10): (True, False, ((0, 0), (1, 1), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 11): (True, False, ((0, 0), (1, 1), (1, 2), (0, 2)), True, ()),
    ("dodecagon", 12): (True, True, ((0, 0), (1, 0), (2, 1), (2, 2), (0, 1)), True, ()),
    ("dodecagon", 13): (True, True, ((0, 0), (2, 1), (2, 2), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 14): (True, True, ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2)), True, ()),
    ("dodecagon", 15): (True, True, ((0, 0), (1, 0), (2, 2), (1, 2), (0, 1)), True, ()),
    ("dodecagon", 16): (True, True, ((0, 0), (1, -1), (2, 0), (2, 1), (1, 1)), True, ()),
    ("dodecagon", 17): (True, True, ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)), True, ()),
}


@pytest.mark.parametrize("name,eid", sorted(EDGE_DELETION_REPORTS))
def test_verify_bundle_on_edge_deletions(name, eid):
    model = CATALOG[name]()
    cut = DimerModel(model.nodes, [e for e in model.edges if e.id != eid])
    rep = verify_bundle(cut)
    got = (rep.valid_dimer, rep.consistent, rep.char_polygon,
           rep.char_matches_zigzag, tuple(rep.notes))
    assert got == EDGE_DELETION_REPORTS[name, eid]


def test_origin_matching_is_invariant():
    sq = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    sd = synthesize(sq, list(canonical_group("C2")))
    matching = invariant_matching_at_origin(sd.model, sd.action)
    assert is_perfect_matching(sd.model, matching)
    for h in sd.action.elements:
        assert apply_to_matching(sd.action, h, matching) == tuple(sorted(matching))


# ---------------------------------------------------------------------------
# Ratchet over three case sets of invariant polygons


def _hull_or_none(points):
    try:
        return convex_hull(points)
    except DegenerateError:
        return None


def _case_set(name):
    """(tag, polygon) cases, each polygon once per group.

    radius-1: hulls of the orbits of one or two points of [-1,1]^2;
    radius-2: hulls of the orbit of one point of [-2,2]^2 with a
    coordinate of +-2; hulls: every invariant hull of points of [-1,1]^2,
    that is of unions of orbits."""
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    out = []
    for tag in GROUP_TAGS:
        group = canonical_group(tag)
        if name == "radius-1":
            seeds = [[p] for p in grid] + [list(c) for c in itertools.combinations(grid, 2)]
        elif name == "radius-2":
            seeds = [
                [(x, y)]
                for x in range(-2, 3)
                for y in range(-2, 3)
                if 2 in (abs(x), abs(y))
            ]
        else:
            orbits = sorted({orbit(group, p) for p in grid})
            seeds = [
                [p for o in sub for p in o]
                for r in range(1, len(orbits) + 1)
                for sub in itertools.combinations(orbits, r)
            ]
        seen = set()
        for seed in seeds:
            poly = _hull_or_none(p for q in seed for p in orbit(group, q))
            if poly is not None and poly not in seen:
                seen.add(poly)
                out.append((tag, poly))
    return out


CASE_SETS = {name: _case_set(name) for name in ("radius-1", "radius-2", "hulls")}
# Hexagons with a coordinate of +-3 that only a cut with legs longer than
# one reaches: at the corners of a triangle, and of a hexagon, that a
# reflection fixes.  The per-tag envelope table built both with its
# triangle pre-cuts, so they must keep building.
CASE_SETS["long-legs"] = [
    ("D6_1", ((-3, -4), (-1, -4), (4, 1), (4, 3), (-1, 3), (-3, 1))),
    ("D6_2", ((-4, -3), (-3, -4), (3, -1), (4, 1), (1, 4), (-1, 3))),
]

# May only shrink.  A planner gap: no envelope within the work budget
# cuts down to it, though its mirror image (-3,-1),(-1,-3),(1,-2),(3,2),
# (2,3),(-2,1) builds; it ends on the budget (about 13 s).
EXPECTED_STUCK = {
    # D6_2 hexagon with sides of lattice length 1, 2, 1, 2, 1, 2
    ("D6_2", ((-3, -2), (-2, -3), (2, -1), (3, 1), (1, 3), (-1, 2))),
}


def test_case_sets_have_the_expected_sizes():
    assert {k: len(v) for k, v in CASE_SETS.items()} == {
        "radius-1": 54,
        "radius-2": 45,
        "hulls": 238,
        "long-legs": 2,
    }
    cases = {c for v in CASE_SETS.values() for c in v}
    assert EXPECTED_STUCK <= cases
    assert all(is_invariant(p, canonical_group(t)) for t, p in cases)


@pytest.mark.parametrize(
    "tag,polygon",
    [
        pytest.param(
            tag,
            poly,
            id=f"{name}-{tag}-" + "_".join(f"{x},{y}" for x, y in poly),
            marks=[pytest.mark.slow] if name in ("radius-2", "long-legs") else [],
        )
        for name, cases in CASE_SETS.items()
        for tag, poly in cases
    ],
)
def test_synthesis_ratchet(tag, polygon):
    if (tag, polygon) in EXPECTED_STUCK:
        with pytest.raises(PlannerStuckError):
            synthesize(polygon, list(canonical_group(tag)))
        return
    sd = synthesize(polygon, list(canonical_group(tag)))
    rep = verify_bundle(sd.model, action=sd.action, polygon=polygon)
    assert rep.ok
    assert rep.polygon_match
    assert rep.fixed_face is not None
    assert rep.char_matches_zigzag is True
