from fractions import Fraction

import pytest

from symdimer.construct import (
    dodecagon_model,
    hexagonal_model,
    octagon_model,
    square_model,
)
from symdimer.dimer import (
    BLACK,
    WHITE,
    DimerModel,
    Edge,
    MergeLoopError,
    NoFixedFaceError,
    Node,
    NotSymmetricError,
    TwoEdgesSameDirectionError,
    UnknownElementError,
    face_offset_sum,
    faces,
    find_symmetry,
    fixed_face,
    remove_divalent,
    rotation_system,
    symmetry_actions,
    validate,
)
from symdimer.lattice import Mat2, canonical_group

F = Fraction


def test_catalog_models_are_valid():
    expected = {
        "hex": (hexagonal_model, (2, 3, 1)),
        "square": (square_model, (2, 4, 2)),
        "octagon": (octagon_model, (8, 12, 4)),
        "dodecagon": (dodecagon_model, (12, 18, 6)),
    }
    for name, (mk, euler) in expected.items():
        rep = validate(mk())
        assert rep.ok, f"{name}: {rep.failures()}"
        assert rep.euler == euler, name


def test_validate_flags_univalent():
    m = DimerModel(
        [
            Node(0, WHITE, (F(1, 4), F(1, 4))),
            Node(1, BLACK, (F(3, 4), F(3, 4))),
        ],
        [Edge(0, 0, 1, (0, 0))],
    )
    rep = validate(m)
    assert rep.univalent == (0, 1)
    assert not rep.ok


def test_validate_flags_crossing():
    m = DimerModel(
        [
            Node(0, WHITE, (F(1, 8), F(1, 8))),
            Node(1, BLACK, (F(7, 8), F(7, 8))),
            Node(2, WHITE, (F(7, 8), F(1, 8))),
            Node(3, BLACK, (F(1, 8), F(7, 8))),
        ],
        [
            Edge(0, 0, 1, (0, 0)),
            Edge(1, 2, 3, (0, 0)),
            Edge(2, 0, 3, (0, 0)),
            Edge(3, 2, 1, (0, 0)),
        ],
    )
    rep = validate(m)
    assert (0, 1) in rep.crossing


def test_validate_crossing_through_torus_wrap():
    # the horizontal edge wraps through x=1; the vertical edge crosses it
    # only after translating by (1,0)
    m = DimerModel(
        [
            Node(0, WHITE, (F(15, 16), F(1, 2))),
            Node(1, BLACK, (F(1, 16), F(1, 2))),
            Node(2, WHITE, (F(1, 32), F(1, 4))),
            Node(3, BLACK, (F(1, 32), F(3, 4))),
        ],
        [Edge(0, 0, 1, (1, 0)), Edge(1, 2, 3, (0, 0))],
    )
    rep = validate(m)
    assert (0, 1) in rep.crossing


def test_hexagonal_single_face():
    m = hexagonal_model()
    fs = faces(m)
    assert len(fs) == 1
    assert len(fs[0].boundary) == 6
    dirs = [d for _, d in fs[0].boundary]
    assert dirs == [1, -1, 1, -1, 1, -1]
    assert face_offset_sum(m, fs[0]) == (0, 0)


def test_rotation_order_octagon_node0():
    m = octagon_model()
    rot = rotation_system(m)
    # node 0 sees edge 9 at 45 degrees, edge 3 pointing left, edge 0 down
    assert rot[0] == (9, 3, 0)


def test_rotation_system_is_computed_once_per_model():
    m = octagon_model()
    rot = rotation_system(m)
    assert rotation_system(m) is rot
    with pytest.raises(TypeError):
        rot[0] = ()


def test_rotation_system_failure_is_raised_every_time():
    # both edges run from the white node along the diagonal direction
    m = DimerModel(
        [Node(0, WHITE, (F(1, 4), F(1, 4))), Node(1, BLACK, (F(3, 4), F(3, 4)))],
        [Edge(0, 0, 1, (0, 0)), Edge(1, 0, 1, (1, 1))],
    )
    for _ in range(2):
        with pytest.raises(TwoEdgesSameDirectionError):
            rotation_system(m)


def _subdivided_square():
    # edge 0 of the square model replaced by a chain through two divalent
    # nodes placed on the old segment
    nodes = [
        Node(0, WHITE, (F(1, 4), F(1, 4))),
        Node(1, BLACK, (F(3, 4), F(3, 4))),
        Node(2, BLACK, (F(5, 12), F(5, 12))),
        Node(3, WHITE, (F(7, 12), F(7, 12))),
    ]
    edges = [
        Edge(0, 0, 2, (0, 0)),
        Edge(1, 0, 1, (-1, 0)),
        Edge(2, 0, 1, (0, -1)),
        Edge(3, 0, 1, (-1, -1)),
        Edge(4, 3, 2, (0, 0)),
        Edge(5, 3, 1, (0, 0)),
    ]
    return DimerModel(nodes, edges)


def test_remove_divalent_collapses_subdivision():
    m = _subdivided_square()
    assert validate(m).ok
    out = remove_divalent(m)
    assert all(out.degree(n.id) >= 3 for n in out.nodes)
    assert len(out.nodes) == 2
    assert len(out.edges) == 4
    offsets = sorted(e.offset for e in out.edges)
    assert offsets == [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    assert validate(out).ok


def test_remove_divalent_rejects_loop():
    nodes = [
        Node(0, WHITE, (F(1, 2), F(1, 4))),
        Node(1, BLACK, (F(1, 2), F(3, 4))),
    ]
    edges = [Edge(0, 0, 1, (0, 0)), Edge(1, 0, 1, (0, 1))]
    m = DimerModel(nodes, edges)
    with pytest.raises(MergeLoopError):
        remove_divalent(m)


SYMMETRY_CASES = [
    (hexagonal_model, "C3"),
    (square_model, "C2"),
    (square_model, "C4"),
    (square_model, "R1"),
    (square_model, "R2"),
    (square_model, "D4_1"),
    (square_model, "D4_2"),
    (square_model, "D8"),
    (octagon_model, "C4"),
    (octagon_model, "D8"),
    (dodecagon_model, "C6"),
    (dodecagon_model, "D6_2"),
    (dodecagon_model, "D12"),
]


@pytest.mark.parametrize("mk,tag", SYMMETRY_CASES)
def test_find_symmetry_catalog(mk, tag):
    act = find_symmetry(mk(), canonical_group(tag))
    assert len(act.elements) == len(canonical_group(tag))


@pytest.mark.parametrize(
    "mk", [hexagonal_model, square_model, octagon_model, dodecagon_model]
)
def test_trivial_group_yields_one_action(mk):
    acts = list(symmetry_actions(mk(), canonical_group("TRIVIAL")))
    assert len(acts) == 1
    assert acts[0].maps[Mat2.identity()].translation == (0, 0)


def test_find_symmetry_rejects_wrong_group():
    with pytest.raises(NotSymmetricError):
        find_symmetry(hexagonal_model(), canonical_group("C4"))


def test_symmetry_composition_law():
    m = square_model()
    act = find_symmetry(m, canonical_group("D8"))
    for g in act.elements:
        for h in act.elements:
            gh = g.mul(h)
            for n in act.maps[g].node_perm:
                assert (
                    act.maps[g].node_perm[act.maps[h].node_perm[n]]
                    == act.maps[gh].node_perm[n]
                )
            for e in act.maps[g].edge_perm:
                assert (
                    act.maps[g].edge_perm[act.maps[h].edge_perm[e]]
                    == act.maps[gh].edge_perm[e]
                )
            # translations compose through the linear parts modulo Z^2
            tg, th = act.maps[g].translation, act.maps[h].translation
            lg = act.maps[g].linear
            step = lg.apply(th)
            want = ((step[0] + tg[0]) % 1, (step[1] + tg[1]) % 1)
            assert act.maps[gh].translation == want


def test_sixfold_rotation_advances_rings():
    m = dodecagon_model()
    gen = Mat2.from_rows([[1, -1], [1, 0]])
    act = find_symmetry(m, canonical_group("C6"))
    perm = act.maps[gen].node_perm
    for i in range(6):
        assert perm[i] == (i + 1) % 6
        assert perm[6 + i] == 6 + (i + 1) % 6


def test_diagonal_reflection_swaps_colors():
    m = dodecagon_model()
    swap = Mat2.from_rows([[0, 1], [1, 0]])
    act = find_symmetry(m, canonical_group("D12"))
    perm = act.maps[swap].node_perm
    assert perm[0] == 6 and perm[6] == 0
    assert perm[1] == 11 and perm[11] == 1
    for n in m.nodes:
        img = m.node(perm[n.id])
        assert img.color != n.color


def test_fixed_face_selection():
    act = find_symmetry(octagon_model(), canonical_group("D8"))
    assert fixed_face(act) == 1
    act2 = find_symmetry(square_model(), canonical_group("C4"))
    with pytest.raises(NoFixedFaceError):
        fixed_face(act2)
    with pytest.raises(NoFixedFaceError):
        find_symmetry(square_model(), canonical_group("C4"), require_fixed_face=True)


def test_apply_isometry_unknown_element():
    act = find_symmetry(hexagonal_model(), canonical_group("C3"))
    with pytest.raises(UnknownElementError):
        act.node_perm(Mat2.from_rows([[0, -1], [1, 0]]))
