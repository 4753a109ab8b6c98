"""Tests for the dual quiver, its relations, and group actions on it."""

import pytest

from symdimer.construct import CATALOG, cover
from symdimer.dimer import find_symmetry, fixed_face
from symdimer.lattice import Mat2, canonical_group
from symdimer.matchings import enumerate_matchings, invariant_matching_at_origin
from symdimer.quiver import (
    NotInvariantMatchingError,
    action_on_quiver,
    map_path,
    quiver_of,
    relations_equivariant,
    twisted_action,
    v0_generated_theta,
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
        for rel in q.relations:
            a = q.arrow(rel.arrow)
            for path in (rel.plus, rel.minus):
                assert q.is_path(path)
                assert q.source(path[0]) == a.target
                assert q.target(path[-1]) == a.source


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
    qa = action_on_quiver(model, act)
    ident = Mat2.identity()
    assert qa[ident].vertex_perm == {0: 0}
    assert qa[ident].arrow_perm == {0: 0, 1: 1, 2: 2}
    assert not qa[ident].reverses_orientation


def test_rotation_acts_with_order_four_and_fixes_the_fixed_face():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("C4"))
    qa = action_on_quiver(model, act)
    v0 = fixed_face(act)
    gen = Mat2.from_rows(((0, -1), (1, 0)))
    assert perm_order(qa[gen].arrow_perm) == 4
    assert qa[gen].vertex_perm[v0] == v0


def test_reflection_exchanges_the_two_arrow_families():
    model = square_model()
    act = find_symmetry(model, canonical_group("R1"))
    q = quiver_of(model)
    qa = action_on_quiver(model, act)
    refl = Mat2.from_rows(((1, 0), (0, -1)))
    assert qa[refl].reverses_orientation
    forward = {a.id for a in q.arrows if (a.source, a.target) == (0, 1)}
    backward = {a.id for a in q.arrows if (a.source, a.target) == (1, 0)}
    assert {qa[refl].arrow_perm[a] for a in forward} == backward
    assert {qa[refl].arrow_perm[a] for a in backward} == forward


def test_relations_are_equivariant_under_the_full_dihedral_action():
    model = octagon_model()
    q = quiver_of(model)
    act = find_symmetry(model, canonical_group("D8"))
    qa = action_on_quiver(model, act)
    assert len(qa) == 8
    for h, a in qa.items():
        assert relations_equivariant(q, a)
        rel = q.relations[0]
        img = q.relation(a.arrow_perm[rel.arrow])
        if a.reverses_orientation:
            assert img.plus == map_path(a, rel.minus)
        else:
            assert img.plus == map_path(a, rel.plus)


def test_twisted_action_flips_signs_exactly_on_the_matching():
    model = octagon_model()
    act = find_symmetry(model, canonical_group("D8"))
    d0 = invariant_matching_at_origin(model, act)
    sam = twisted_action(model, act, d0)
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
    sam = twisted_action(model, act, d0)
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
        twisted_action(model, act, moved)


def test_theta_is_positive_away_from_the_chosen_vertex():
    q = quiver_of(octagon_model())
    theta = v0_generated_theta(q, q.vertices[0])
    assert theta(q.vertices[0]) == -3
    assert all(theta(v) == 1 for v in q.vertices[1:])
    assert theta.total == 0


def test_theta_on_a_single_vertex_quiver_is_zero():
    q = quiver_of(hexagonal_model())
    theta = v0_generated_theta(q, 0)
    assert theta.theta == {0: 0}
    assert theta.total == 0


def test_theta_checks_invariance_under_supplied_permutations():
    model = octagon_model()
    q = quiver_of(model)
    act = find_symmetry(model, canonical_group("D8"))
    qa = action_on_quiver(model, act)
    perms = [a.vertex_perm for a in qa.values()]
    v0 = fixed_face(act)
    theta = v0_generated_theta(q, v0, perms)
    assert theta(v0) == -3
    moved = next(v for v in q.vertices if any(p[v] != v for p in perms))
    with pytest.raises(ValueError):
        v0_generated_theta(q, moved, perms)


def test_theta_rejects_a_missing_vertex():
    q = quiver_of(hexagonal_model())
    with pytest.raises(ValueError):
        v0_generated_theta(q, 99)


def test_quiver_action_survives_a_cover():
    model = cover(square_model(), Mat2.from_rows(((2, 0), (0, 2))))
    q = quiver_of(model)
    assert len(q.vertices) == 8
    assert len(q.arrows) == 16
    act = find_symmetry(model, canonical_group("R2"))
    assert act.fixed_faces() == [1, 2, 4, 7]
    qa = action_on_quiver(model, act)
    refl = Mat2.from_rows(((0, 1), (1, 0)))
    assert relations_equivariant(q, qa[refl])
