"""Covers, edge deletion, re-embedding, and verified corner chops."""

import itertools
from fractions import Fraction

import pytest

from symdimer.dimer import (
    WHITE,
    BLACK,
    DimerModel,
    Edge,
    MergeLoopError,
    Node,
    find_symmetry,
    frac_pt,
    symmetry_actions,
    validate,
)
from symdimer.lattice import (
    GROUP_TAGS,
    Mat2,
    canonical_group,
    convex_hull,
    corner_chop_admissible,
    normalize_translation,
    exact_invariant_frame,
)
from symdimer.matchings import enumerate_matchings
import symdimer.surgery as surgery
from symdimer.surgery import (
    Budget,
    BudgetSpentError,
    EmbeddingFailedError,
    IsolatedNodeError,
    SearchExhaustedError,
    SingularBasisError,
    SurgeryError,
    UnivalentAfterDeletionError,
    WholePolygonError,
    cover,
    corner_chop,
    corner_cuts,
    delete_edges,
    reembed,
)
from symdimer.zigzag import check_consistency, zigzag_paths, zigzag_polygon
from symdimer.construct import (
    hexagonal_model,
    octagon_model,
    square_model,
    dodecagon_model,
)


def mat(a, b, c, d):
    return Mat2.from_rows(((a, b), (c, d)))


def poly_of(model):
    return zigzag_polygon([p.slope for p in zigzag_paths(model)])


def identity_action(model):
    return find_symmetry(model, [Mat2.identity()])


# ---------------------------------------------------------------------------
# Covers


def test_identity_cover_is_isomorphic():
    base = hexagonal_model()
    c = cover(base, Mat2.identity())
    assert len(c.nodes) == len(base.nodes)
    assert len(c.edges) == len(base.edges)
    assert validate(c).ok
    assert poly_of(c) == poly_of(base)


def test_singular_basis_rejected():
    with pytest.raises(SingularBasisError):
        cover(hexagonal_model(), mat(1, 2, 2, 4))


def test_negative_determinant_basis_is_canonicalized():
    base = square_model()
    flipped = cover(base, mat(2, 0, 0, -1))
    straight = cover(base, mat(2, 0, 0, 1))
    assert len(flipped.nodes) == len(straight.nodes)
    assert poly_of(flipped) == poly_of(straight)


@pytest.mark.parametrize(
    "make,s",
    [
        (hexagonal_model, (2, 0, 0, 2)),
        (hexagonal_model, (1, 1, 0, 3)),
        (square_model, (1, 1, -1, 1)),
        (square_model, (2, 0, 0, 2)),
        (octagon_model, (2, 0, 0, 2)),
    ],
)
def test_cover_polygon_law(make, s):
    base = make()
    sm = mat(*s)
    k = sm.det()
    c = cover(base, sm)
    assert len(c.nodes) == k * len(base.nodes)
    assert len(c.edges) == k * len(base.edges)
    assert validate(c).ok
    assert check_consistency(c).consistent
    transported = [sm.transpose().apply(p) for p in poly_of(base)]
    assert poly_of(c) == normalize_translation(convex_hull(transported))


def test_hexagonal_two_by_two_cover_size():
    c = cover(hexagonal_model(), mat(2, 0, 0, 2))
    assert len(c.nodes) == 8
    assert len(c.edges) == 12


def test_square_three_by_one_cover_is_rectangle():
    c = cover(square_model(), mat(3, 0, 0, 1))
    assert poly_of(c) == ((0, 0), (3, 0), (3, 1), (0, 1))


def test_cover_matching_counts():
    assert len(enumerate_matchings(cover(hexagonal_model(), mat(2, 0, 0, 1)), 100)) == 5
    assert len(enumerate_matchings(cover(octagon_model(), mat(2, 0, 0, 2)), 2000)) == 641


# ---------------------------------------------------------------------------
# Edge deletion


def test_delete_nothing_returns_model_unchanged():
    m = octagon_model()
    assert delete_edges(m, []) is m


def test_delete_unknown_edge_rejected():
    with pytest.raises(ValueError):
        delete_edges(octagon_model(), [99])


def test_delete_leaving_isolated_node_rejected():
    m = hexagonal_model()
    with pytest.raises(IsolatedNodeError):
        delete_edges(m, [0, 1, 2])


def test_delete_leaving_univalent_node_rejected():
    m = hexagonal_model()
    with pytest.raises(UnivalentAfterDeletionError):
        delete_edges(m, [0, 1])


def test_delete_crossing_pair_collapses_to_triangle():
    m = octagon_model()
    cut = reembed(delete_edges(m, [2, 4]))
    assert len(cut.nodes) == 4
    assert len(cut.edges) == 6
    assert validate(cut).ok
    assert check_consistency(cut).consistent
    assert poly_of(cut) == ((0, 0), (1, -1), (1, 1))


def test_reembed_keeps_harmonic_model_fixed():
    m = hexagonal_model()
    r = reembed(m)
    assert {n.pos for n in r.nodes} == {n.pos for n in m.nodes}


def test_reembed_preserves_validity_and_symmetry():
    m = octagon_model()
    r = reembed(m)
    assert validate(r).ok
    action = find_symmetry(r, canonical_group("D8"))
    assert action is not None


# Dense reference for reembed: the pinned Laplacian written out in full and
# solved by Gauss-Jordan elimination, both coordinates as two augmented
# columns.


def dense_reembed(model):
    ids = sorted(n.id for n in model.nodes)
    idx = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    m = [[Fraction(0)] * (n + 2) for _ in range(n)]
    for e in model.edges:
        w, b = idx[e.white], idx[e.black]
        for u, v, sign in ((w, b, 1), (b, w, -1)):
            m[u][u] += 1
            m[u][v] -= 1
            m[u][n] += sign * e.offset[0]
            m[u][n + 1] += sign * e.offset[1]
    pin = model.node(ids[0]).pos
    m[0] = [Fraction(1 if j == 0 else 0) for j in range(n)] + list(pin)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise EmbeddingFailedError("singular harmonic system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    nodes = [
        Node(id=nid, color=model.node(nid).color, pos=frac_pt((m[i][n], m[i][n + 1])))
        for i, nid in enumerate(ids)
    ]
    try:
        return DimerModel(nodes, model.edges)
    except ValueError as exc:
        raise EmbeddingFailedError(str(exc)) from None


def _outcome(embed, model):
    try:
        return embed(model).nodes
    except EmbeddingFailedError as exc:
        return type(exc), str(exc)


CATALOG = [hexagonal_model, square_model, octagon_model, dodecagon_model]


def _crossing_candidates(model):
    """Every edge deletion that resolves one crossing pair of zigzag paths
    and collapses to a model."""
    paths = zigzag_paths(model)
    out = []
    for z1, z2 in itertools.combinations(paths, 2):
        shared = set(z1.edge_ids()) & set(z2.edge_ids())
        if not shared:
            continue
        try:
            out.append(delete_edges(model, shared))
        except (SurgeryError, MergeLoopError):
            continue
    return out


@pytest.mark.parametrize("make", CATALOG)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reembed_matches_dense_solve_on_catalog_covers(make, k):
    m = cover(make(), mat(k, 0, 0, k))
    assert _outcome(reembed, m) == _outcome(dense_reembed, m)


@pytest.mark.parametrize("make", CATALOG)
def test_reembed_matches_dense_solve_on_crossing_cuts(make):
    base = make()
    cands = _crossing_candidates(base) + _crossing_candidates(
        cover(base, mat(2, 0, 0, 1))
    )
    assert cands
    for cut in cands:
        assert _outcome(reembed, cut) == _outcome(dense_reembed, cut)


def _disjoint_hexagonal_pair():
    base = hexagonal_model()
    shift = Fraction(1, 6)
    nodes = list(base.nodes) + [
        Node(n.id + 2, n.color, (n.pos[0] - shift, n.pos[1])) for n in base.nodes
    ]
    edges = list(base.edges) + [
        Edge(e.id + 3, e.white + 2, e.black + 2, e.offset) for e in base.edges
    ]
    return DimerModel(nodes, edges)


def test_reembed_rejects_model_disconnected_from_pin():
    m = _disjoint_hexagonal_pair()
    with pytest.raises(EmbeddingFailedError, match="singular harmonic system"):
        reembed(m)
    with pytest.raises(EmbeddingFailedError, match="singular harmonic system"):
        dense_reembed(m)


def test_reembed_rejects_coincident_harmonic_positions():
    # Two white nodes with the same neighbor and the same four offsets
    # have the same centroid, so the pinned one is hit by the other.
    offsets = [(0, 0), (-1, 0), (0, -1), (-1, -1)]
    m = DimerModel(
        [
            Node(0, WHITE, (Fraction(1, 4), Fraction(1, 4))),
            Node(1, BLACK, (Fraction(3, 4), Fraction(3, 4))),
            Node(2, WHITE, (Fraction(1, 2), Fraction(1, 4))),
        ],
        [Edge(i, 0, 1, o) for i, o in enumerate(offsets)]
        + [Edge(4 + i, 2, 1, o) for i, o in enumerate(offsets)],
    )
    with pytest.raises(EmbeddingFailedError, match="two nodes share a position"):
        reembed(m)
    assert _outcome(dense_reembed, m) == _outcome(reembed, m)


# ---------------------------------------------------------------------------
# Symmetric corner chops


def centered_square_cover():
    return cover(square_model(), mat(2, 0, 0, 2))


def test_corner_chop_square_c2_gives_hexagon():
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    assert action is not None
    chopped = corner_chop(m, action.elements, (1, 1))
    assert validate(chopped).ok
    assert check_consistency(chopped).consistent
    frame = exact_invariant_frame(
        poly_of(chopped), canonical_group("C2")
    )
    assert frame == convex_hull(
        [(1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
    )
    assert find_symmetry(chopped, canonical_group("C2")) is not None


def test_corner_chop_c4_diamond_orbit_gives_square():
    m = cover(octagon_model(), mat(2, 0, 0, 2))
    action = find_symmetry(m, canonical_group("C4"))
    assert action is not None
    chopped = corner_chop(m, action.elements, (2, 0))
    assert validate(chopped).ok
    assert check_consistency(chopped).consistent
    frame = exact_invariant_frame(
        poly_of(chopped), canonical_group("C4")
    )
    assert frame == convex_hull([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert find_symmetry(chopped, canonical_group("C4")) is not None


def test_corner_chop_trivial_group_matches_plain_cut():
    m = octagon_model()
    action = identity_action(m)
    chopped = corner_chop(m, action.elements, (2, 0))
    assert poly_of(chopped) == ((0, 0), (1, -1), (1, 1))


def test_corner_chop_inadmissible_corner_rejected():
    m = octagon_model()
    action = find_symmetry(m, canonical_group("C4"))
    assert action is not None
    with pytest.raises(ValueError):
        corner_chop(m, action.elements, (1, 0))


def test_corner_chop_whole_polygon_guard():
    m = octagon_model()
    action = find_symmetry(m, canonical_group("C2"))
    assert action is not None
    with pytest.raises(WholePolygonError):
        corner_chop(m, action.elements, (1, 0))


def test_corner_chop_unreachable_target_exhausts():
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    with pytest.raises(SearchExhaustedError):
        corner_chop(m, action.elements, (1, 1), target=((0, 0), (5, 0), (0, 5)))


def test_corner_chop_dodecagon_c2_gives_diamond():
    m = dodecagon_model()
    action = find_symmetry(m, canonical_group("C2"))
    assert action is not None
    chopped = corner_chop(m, action.elements, (1, 1))
    assert validate(chopped).ok
    assert check_consistency(chopped).consistent
    frame = exact_invariant_frame(
        poly_of(chopped), canonical_group("C2")
    )
    assert frame == ((-1, 0), (0, -1), (1, 0), (0, 1))
    assert find_symmetry(chopped, canonical_group("C2")) is not None


# ---------------------------------------------------------------------------
# The per-model cut cache


@pytest.fixture
def reembed_calls(monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return reembed(model)

    monkeypatch.setattr(surgery, "reembed", counted)
    return calls


def test_repeated_chop_is_decided_once(reembed_calls):
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    first = corner_chop(m, action.elements, (1, 1))
    assert reembed_calls
    seen = len(reembed_calls)
    assert corner_chop(m, action.elements, (1, 1)) is first
    assert len(reembed_calls) == seen


def test_repeated_failing_chop_is_decided_once(reembed_calls):
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    target = ((0, 0), (5, 0), (0, 5))
    with pytest.raises(SearchExhaustedError) as first:
        corner_chop(m, action.elements, (1, 1), target=target)
    seen = len(reembed_calls)
    with pytest.raises(SearchExhaustedError) as again:
        corner_chop(m, action.elements, (1, 1), target=target)
    assert str(again.value) == str(first.value)
    assert len(reembed_calls) == seen
    # the same deleted edges toward another target are a new candidate
    cold = centered_square_cover()
    want = corner_chop(cold, canonical_group("C2"), (1, 1))
    assert corner_chop(m, action.elements, (1, 1)) == want


def test_budget_counts_edges_handled(reembed_calls):
    m = centered_square_cover()
    group = canonical_group("C2")
    with pytest.raises(BudgetSpentError, match="0 of 0 edge units"):
        corner_chop(m, group, (1, 1), budget=Budget(0))
    budget = Budget(10**6)
    first = corner_chop(m, group, (1, 1), budget=budget)
    assert reembed_calls
    # gathering the candidates, then each candidate decided
    assert budget.spent == len(m.edges) * (1 + len(reembed_calls))
    # kept verdicts are free: the same chop again costs the gathering
    spent = budget.spent
    assert corner_chop(m, group, (1, 1), budget=budget) is first
    assert budget.spent == spent + len(m.edges)


def test_distinct_edge_orbits_cover_every_action():
    """D4_2 on a 2x2 square cover: each edge-orbit partition of an
    action comes once, in order of first appearance."""
    m = centered_square_cover()
    group = canonical_group("D4_2")
    every = [
        frozenset(surgery._edge_orbits(a).values())
        for a in symmetry_actions(m, group)
    ]
    once = [frozenset(o.values()) for o in surgery._distinct_edge_orbits(m, group)]
    assert len(once) < len(every)
    assert once == list(dict.fromkeys(every))


def test_corner_cuts_yield_each_outcome_once():
    m = centered_square_cover()
    group = canonical_group("C2")
    cuts = list(corner_cuts(m, group, (1, 1)))
    assert cuts and corner_chop(m, group, (1, 1)) is cuts[0]
    assert len({id(c) for c in cuts}) == len(cuts)
    for cut in cuts:
        assert exact_invariant_frame(poly_of(cut), group) == convex_hull(
            [(1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
        )


def test_long_legs_need_a_target():
    m = centered_square_cover()
    with pytest.raises(ValueError, match="needs its target"):
        corner_chop(m, canonical_group("C2"), (1, 1), legs=2)


def test_cut_with_two_legs_at_mirror_corners():
    """D6_1 on the honeycomb cover whose polygon is a triangle with sides
    of length 6: cutting legs of length 2 off each corner leaves the
    hexagon with sides of length 2.  One-leg chops cannot get there: the
    two corners a one-leg chop leaves are mirror images joined by a
    primitive segment, which no admissible chop cuts again."""
    group = canonical_group("D6_1")
    tri = cover(hexagonal_model(), mat(6, 0, 0, 6))
    frame = exact_invariant_frame(poly_of(tri), group)
    assert len(frame) == 3
    ends = [
        (c[0] + 2 * (q[0] - c[0]) // 6, c[1] + 2 * (q[1] - c[1]) // 6)
        for i, c in enumerate(frame)
        for q in (frame[i - 1], frame[(i + 1) % 3])
    ]
    target = convex_hull(ends)
    assert len(target) == 6
    with pytest.raises(SearchExhaustedError):
        corner_chop(tri, group, frame[0], target=target)
    cut = corner_chop(tri, group, frame[0], legs=2, target=target)
    assert validate(cut).ok
    assert check_consistency(cut).consistent
    assert exact_invariant_frame(poly_of(cut), group) == target
    assert find_symmetry(cut, group, require_fixed_face=True) is not None


def test_accept_runs_on_every_repeated_cut():
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    seen = []

    def accept(cut):
        seen.append(cut)
        return True

    first = corner_chop(m, action.elements, (1, 1), accept=accept)
    assert corner_chop(m, action.elements, (1, 1), accept=accept) is first
    assert seen == [first, first]
    # a rejecting predicate is asked again on the same cached cuts
    rejected = []
    for _ in range(2):
        with pytest.raises(SearchExhaustedError):
            corner_chop(m, action.elements, (1, 1), accept=lambda cut: rejected.append(cut))
    half = len(rejected) // 2
    assert rejected[0] is first
    assert all(a is b for a, b in zip(rejected[:half], rejected[half:]))
    assert len(rejected) == 2 * half
    assert corner_chop(m, action.elements, (1, 1)) is first


def _chop_outcome(model, group, corner):
    try:
        cut = corner_chop(model, group, corner)
    except SurgeryError as exc:
        return type(exc), str(exc)
    return cut.nodes, cut.edges


def test_cold_and_warm_cut_caches_agree():
    """Every admissible corner chop under every group with a face-fixing
    action on the catalog models and their covers of index 2: a fresh
    copy of the model per chop (cold cache) against one model shared by
    all the chops of a group, asked twice (warm cache)."""
    chops = cuts = 0
    for make in CATALOG:
        base = make()
        models = [base] + [
            cover(base, mat(a, b, 0, d))
            for a, d in ((1, 2), (2, 1))
            for b in range(a)
        ]
        for model in models:
            for tag in GROUP_TAGS:
                mats = canonical_group(tag)
                warm = DimerModel(model.nodes, model.edges)
                if not any(a.fixed_faces() for a in symmetry_actions(warm, mats)):
                    continue
                try:
                    frame = exact_invariant_frame(poly_of(warm), mats)
                except ValueError:
                    continue
                for corner in frame:
                    if not corner_chop_admissible(frame, mats, corner):
                        continue
                    cold = DimerModel(model.nodes, model.edges)
                    want = _chop_outcome(cold, mats, corner)
                    assert _chop_outcome(warm, mats, corner) == want
                    assert _chop_outcome(warm, mats, corner) == want
                    chops += 1
                    cuts += not isinstance(want[0], type)
    assert chops > 150 and 50 < cuts < chops
