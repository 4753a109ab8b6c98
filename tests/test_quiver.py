"""Tests for the dual quiver, its relations, and group actions on it."""

import pytest

from symdimer.construct import CATALOG, cover
from symdimer.dimer import find_symmetry, fixed_face
from symdimer.lattice import Mat2, canonical_group
from symdimer.matchings import enumerate_matchings, invariant_matching_at_origin
from symdimer.quiver import (
    NotInvariantMatchingError,
    quiver_of,
    twisted_action,
)


def hexagonal_model():
    return CATALOG["hexagonal"]()


def square_model():
    return CATALOG["square"]()


def octagon_model():
    return CATALOG["octagon"]()


def perm_order(perm):
    order = 1
    cur = dict(perm)
    ident = {k: k for k in perm}
    while cur != ident:
        cur = {k: perm[v] for k, v in cur.items()}
        order += 1
    return order


def plain_action(model, act):
    """Arrow permutation per element: the action twisted by the empty
    matching, which every element fixes, so every sign is +1."""
    signed = twisted_action(quiver_of(model), act, ())
    assert all(set(s.values()) == {1} for s in signed.sign.values())
    return signed.arrow_perm


def assert_acts_on_quiver(model, act):
    """Every element sends sources to sources and targets to targets
    through its face permutation, and each relation to the relation of
    the image arrow, with the white and black return paths swapped
    exactly when the element has determinant -1."""
    q = quiver_of(model)
    arrows = {a.id: a for a in q.arrows}
    relations = {r.arrow: r for r in q.relations}
    for h, perm in plain_action(model, act).items():
        faces = act.face_perm(h)
        for aid, a in arrows.items():
            img = arrows[perm[aid]]
            assert (img.source, img.target) == (faces[a.source], faces[a.target])
        for rel in q.relations:
            img = relations[perm[rel.arrow]]
            plus = tuple(perm[a] for a in rel.plus)
            minus = tuple(perm[a] for a in rel.minus)
            want = (minus, plus) if h.det() == -1 else (plus, minus)
            assert (img.plus, img.minus) == want


def test_hexagonal_quiver_is_three_loops_with_commutators():
    q = quiver_of(hexagonal_model())
    assert len(q.vertices) == 1
    assert len(q.arrows) == 3
    assert all(a.source == a.target for a in q.arrows)
    ids = {a.id for a in q.arrows}
    for rel in q.relations:
        others = ids - {rel.arrow}
        assert set(rel.plus) == others
        assert set(rel.minus) == others
        assert rel.plus == tuple(reversed(rel.minus))


def test_square_quiver_is_two_vertices_with_length_three_relations():
    q = quiver_of(square_model())
    assert len(q.vertices) == 2
    assert len(q.arrows) == 4
    directions = sorted((a.source, a.target) for a in q.arrows)
    assert directions == [(0, 1), (0, 1), (1, 0), (1, 0)]
    assert len(q.relations) == 4
    for rel in q.relations:
        assert len(rel.plus) == 3
        assert len(rel.minus) == 3


def test_octagon_quiver_counts():
    q = quiver_of(octagon_model())
    assert len(q.vertices) == 4
    assert len(q.arrows) == 12
    assert len(q.relations) == 12


def test_relation_paths_run_from_target_to_source():
    for name in CATALOG:
        q = quiver_of(CATALOG[name]())
        arrows = {a.id: a for a in q.arrows}
        for rel in q.relations:
            a = arrows[rel.arrow]
            for path in (rel.plus, rel.minus):
                for prev, nxt in zip(path, path[1:]):
                    assert arrows[prev].target == arrows[nxt].source
                assert arrows[path[0]].source == a.target
                assert arrows[path[-1]].target == a.source


def test_each_arrow_sits_in_one_white_and_one_black_cycle():
    for name in CATALOG:
        model = CATALOG[name]()
        q = quiver_of(model)
        for a in q.arrows:
            in_white = [n for n, c in q.white_cycles.items() if a.id in c]
            in_black = [n for n, c in q.black_cycles.items() if a.id in c]
            assert len(in_white) == 1
            assert len(in_black) == 1
            assert q.white_cycles[in_white[0]].count(a.id) == 1
            assert q.black_cycles[in_black[0]].count(a.id) == 1


def test_matching_meets_both_relation_paths_equally():
    model = octagon_model()
    q = quiver_of(model)
    for matching in enumerate_matchings(model):
        chosen = set(matching)
        for rel in q.relations:
            plus = sum(1 for a in rel.plus if a in chosen)
            minus = sum(1 for a in rel.minus if a in chosen)
            if rel.arrow in chosen:
                assert plus == 0 and minus == 0
            else:
                assert plus == 1 and minus == 1


def test_identity_acts_trivially():
    model = hexagonal_model()
    act = find_symmetry(model, canonical_group("TRIVIAL"))
    ident = Mat2.identity()
    assert act.face_perm(ident) == {0: 0}
    assert plain_action(model, act)[ident] == {0: 0, 1: 1, 2: 2}
    assert_acts_on_quiver(model, act)


def test_rotation_acts_with_order_four_and_fixes_the_fixed_face():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("C4"))
    v0 = fixed_face(act)
    gen = Mat2.from_rows(((0, -1), (1, 0)))
    assert perm_order(plain_action(model, act)[gen]) == 4
    assert act.face_perm(gen)[v0] == v0


def test_reflection_exchanges_the_two_arrow_families():
    model = square_model()
    act = find_symmetry(model, canonical_group("R1"))
    q = quiver_of(model)
    refl = Mat2.from_rows(((1, 0), (0, -1)))
    assert refl.det() == -1
    perm = plain_action(model, act)[refl]
    forward = {a.id for a in q.arrows if (a.source, a.target) == (0, 1)}
    backward = {a.id for a in q.arrows if (a.source, a.target) == (1, 0)}
    assert {perm[a] for a in forward} == backward
    assert {perm[a] for a in backward} == forward
    assert_acts_on_quiver(model, act)


def test_relations_are_equivariant_under_the_full_dihedral_action():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("D8"))
    assert len(act.elements) == 8
    assert_acts_on_quiver(model, act)


def test_twisted_action_flips_signs_exactly_on_the_matching():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("D8"))
    d0 = invariant_matching_at_origin(model, act)
    sam = twisted_action(quiver_of(model), act, d0)
    assert sam.ok
    assert sam.matching == tuple(sorted(d0))
    for h in act.elements:
        for aid, sign in sam.sign[h].items():
            if h.det() == 1:
                assert sign == 1
            else:
                assert sign == (-1 if aid in set(d0) else 1)


def test_twisted_action_certificate_balances_path_signs():
    model = octagon_model()
    q = quiver_of(model)
    act = find_symmetry(model, canonical_group("D8"))
    d0 = invariant_matching_at_origin(model, act)
    sam = twisted_action(q, act, d0)
    for h in act.elements:
        for rel in q.relations:
            assert sam.path_sign(h, rel.plus) == sam.path_sign(h, rel.minus)


def test_twisted_action_rejects_a_moved_matching():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("D8"))
    d0 = invariant_matching_at_origin(model, act)
    moved = next(
        m
        for m in enumerate_matchings(model)
        if any(
            tuple(sorted(act.edge_perm(h)[e] for e in m)) != tuple(sorted(m))
            for h in act.elements
        )
    )
    assert tuple(sorted(moved)) != tuple(sorted(d0))
    with pytest.raises(NotInvariantMatchingError):
        twisted_action(quiver_of(model), act, moved)


def test_quiver_action_survives_a_cover():
    model = cover(square_model(), Mat2.from_rows(((2, 0), (0, 2))))
    q = quiver_of(model)
    assert len(q.vertices) == 8
    assert len(q.arrows) == 16
    act = find_symmetry(model, canonical_group("R2"))
    assert act.fixed_faces() == [1, 2, 4, 7]
    assert_acts_on_quiver(model, act)
