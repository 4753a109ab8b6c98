"""Envelope planning, symmetric synthesis, and bundle verification."""

import pytest

from symdimer import matchings
from symdimer.construct import (
    CATALOG,
    NotInvariantError,
    UnsupportedGroupError,
    hexagonal_model,
    select_envelope,
    square_model,
    synthesize,
    transform_model,
    verify_bundle,
)
from symdimer.dimer import DimerModel, faces, validate
from symdimer.lattice import (
    Mat2,
    canonical_group,
    convex_hull,
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


def test_select_envelope_threefold_triangle_is_tight():
    tri = [(1, -1), (1, 2), (-2, -1)]
    plan = select_envelope(tri, "C3")
    assert plan.envelope == convex_hull(tri)
    assert plan.catalog == "hexagonal"
    assert plan.basis == mat(3, 0, 0, 3)
    assert plan.pre_cuts == ()


def test_select_envelope_mirror_uses_centred_diamond():
    rect = [(0, -1), (2, -1), (2, 1), (0, 1)]
    plan = select_envelope(rect, "R1")
    assert plan.catalog == "octagon"
    assert plan.envelope == convex_hull([(3, 0), (1, 2), (-1, 0), (1, -2)])
    assert plan.basis == mat(2, 0, 0, 2)
    assert plan.pre_cuts == ()


def test_select_envelope_rejects_unknown_tag():
    with pytest.raises(UnsupportedGroupError):
        select_envelope([(0, 0), (1, 0), (0, 1)], "C5")


def test_select_envelope_rejects_non_invariant_polygon():
    with pytest.raises(NotInvariantError):
        select_envelope([(0, 0), (1, 0), (0, 1)], "C4")


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
    assert all(s["step"] not in ("cut", "chop") for s in sd.trace)
    assert verify_bundle(sd.model, action=sd.action, polygon=tri).ok


def test_synthesize_full_hexagon_symmetry():
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    sd = synthesize(hexagon, list(canonical_group("D12")))
    assert sd.classification.tag == "D12"
    assert len(faces(sd.model)) == 6
    assert verify_bundle(sd.model, action=sd.action, polygon=hexagon).ok


def test_synthesize_chops_fourfold_square():
    sq = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    sd = synthesize(sq, list(canonical_group("C4")))
    assert any(s["step"] == "chop" for s in sd.trace)
    assert len(faces(sd.model)) == 8
    assert verify_bundle(sd.model, action=sd.action, polygon=sq).ok


def test_synthesize_mirror_hexagon_by_chops():
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    sd = synthesize(hexagon, list(canonical_group("R2")))
    assert len(faces(sd.model)) == 6
    assert sd.fixed_face is not None
    assert verify_bundle(sd.model, action=sd.action, polygon=hexagon).ok


def test_synthesize_dihedral_square_uses_triangle_cut():
    sq = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    sd = synthesize(sq, list(canonical_group("D8")))
    assert any(s["step"] == "cut" for s in sd.trace)
    assert len(faces(sd.model)) == 8
    assert verify_bundle(sd.model, action=sd.action, polygon=sq).ok


def test_synthesize_rejects_non_invariant_polygon():
    with pytest.raises(NotInvariantError):
        synthesize([(0, 0), (1, 0), (0, 1)], list(canonical_group("C4")))


def test_synthesize_transports_conjugated_generators():
    p = mat(1, 1, 0, 1)
    p_inv = mat(1, -1, 0, 1)
    rot = mat(0, -1, 1, 0)
    gen = p.mul(rot).mul(p_inv)
    diamond = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    target = convex_hull([p.apply(v) for v in diamond])
    sd = synthesize(target, [gen])
    assert sd.classification.tag == "C4"
    assert any(s["step"] == "transport" for s in sd.trace)
    assert sd.polygon == target
    rep = verify_bundle(sd.model, action=sd.action, polygon=target)
    assert rep.ok


def test_synthesize_transports_orientation_reversing_conjugates():
    p = mat(-1, -2, 0, 1)
    rot = mat(0, -1, 1, -1)
    gen = p.mul(rot).mul(p)
    tri = [(1, -1), (1, 2), (-2, -1)]
    target = convex_hull([p.apply(v) for v in tri])
    sd = synthesize(target, [gen])
    assert sd.classification.tag == "C3"
    assert sd.classification.conjugator.det() == -1
    assert any(s["step"] == "transport" for s in sd.trace)
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
