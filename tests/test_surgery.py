"""Covers, edge deletion, re-embedding, and verified corner chops."""

import itertools
import math
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
    symmetry_actions,
    validate,
)
from symdimer.lattice import (
    GROUP_TAGS,
    DegenerateError,
    Mat2,
    canonical_group,
    convex_hull,
    corner_cut_admissible,
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
    SingularBasisError,
    SurgeryError,
    UnivalentAfterDeletionError,
    cover,
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

from checks import one_leg_rest


def mat(a, b, c, d):
    return Mat2.from_rows(((a, b), (c, d)))


def poly_of(model):
    return zigzag_polygon([p.slope for p in zigzag_paths(model)])


def identity_action(model):
    return find_symmetry(model, [Mat2.identity()])


def chop(model, group, corner, legs=1, target=None):
    """corner_cuts with what the planner proves before it asks: the
    model's polygon in its exact invariant frame, by default the polygon
    a one-leg chop leaves, and a budget too large to run out."""
    frame = exact_invariant_frame(poly_of(model), group)
    if target is None:
        target = one_leg_rest(frame, group, corner)
    return corner_cuts(model, group, frame, corner, legs, target, Budget(10**9))


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
    assert check_consistency(c, zigzag_paths(c)).consistent
    transported = [sm.transpose().apply(p) for p in poly_of(base)]
    assert poly_of(c) == normalize_translation(convex_hull(transported))


def reduced_cosets(s):
    """Reference: every point v of [0,k)^2, k = |det s|, reduced to
    v - s*floor(s^-1 v) in Fractions; the distinct results, sorted."""
    det = s.det()
    inv = (
        (Fraction(s.d, det), Fraction(-s.b, det)),
        (Fraction(-s.c, det), Fraction(s.a, det)),
    )
    reps = set()
    for v in itertools.product(range(abs(det)), repeat=2):
        w = tuple(math.floor(row[0] * v[0] + row[1] * v[1]) for row in inv)
        sw = s.apply(w)
        reps.add((v[0] - sw[0], v[1] - sw[1]))
    return sorted(reps)


def test_coset_representatives_match_the_reduced_square():
    """Every basis with entries in [-3, 3] and det != 0, in or out of
    Hermite normal form, of either determinant sign."""
    bases = [
        mat(*e)
        for e in itertools.product(range(-3, 4), repeat=4)
        if e[0] * e[3] != e[1] * e[2]
    ]
    assert sum(s.det() < 0 for s in bases) == sum(s.det() > 0 for s in bases)
    for s in bases:
        want = reduced_cosets(s)
        assert len(want) == abs(s.det())
        assert surgery._parallelogram_points(s) == want


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
    assert check_consistency(cut, zigzag_paths(cut)).consistent
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
    # Each solved position is a lift; its integer part moves into the
    # offsets of the node's edges, so every segment keeps its shape.
    whole = {
        nid: (math.floor(m[i][n]), math.floor(m[i][n + 1]))
        for i, nid in enumerate(ids)
    }
    nodes = [
        Node(
            id=nid,
            color=model.node(nid).color,
            pos=(m[i][n] - whole[nid][0], m[i][n + 1] - whole[nid][1]),
        )
        for i, nid in enumerate(ids)
    ]
    edges = [
        Edge(
            e.id,
            e.white,
            e.black,
            (
                e.offset[0] + whole[e.black][0] - whole[e.white][0],
                e.offset[1] + whole[e.black][1] - whole[e.white][1],
            ),
        )
        for e in model.edges
    ]
    try:
        return DimerModel(nodes, edges)
    except ValueError as exc:
        raise EmbeddingFailedError(str(exc)) from None


def _outcome(embed, model):
    try:
        out = embed(model)
    except EmbeddingFailedError as exc:
        return type(exc), str(exc)
    return out.nodes, out.edges


def assert_harmonic(model):
    """Every node sits at the mean of its neighbours' ends, each end placed
    by the offset of the edge that reaches it."""
    for n in model.nodes:
        ends = []
        for eid in model.edges_at(n.id):
            e = model.edge(eid)
            if e.white == n.id:
                b = model.node(e.black).pos
                ends.append((b[0] + e.offset[0], b[1] + e.offset[1]))
            else:
                w = model.node(e.white).pos
                ends.append((w[0] - e.offset[0], w[1] - e.offset[1]))
        mean = (
            sum(x for x, _ in ends) / len(ends),
            sum(y for _, y in ends) / len(ends),
        )
        assert mean == n.pos, n.id


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


@pytest.mark.parametrize("make", CATALOG)
def test_reembed_output_is_harmonic_with_its_offsets(make):
    base = make()
    cands = _crossing_candidates(base) + _crossing_candidates(
        cover(base, mat(2, 0, 0, 1))
    )
    embedded = 0
    for cut in cands:
        try:
            out = reembed(cut)
        except EmbeddingFailedError:
            continue
        assert_harmonic(out)
        embedded += 1
    assert embedded


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
    chopped = next(chop(m, action.elements, (1, 1)), None)
    assert validate(chopped).ok
    assert check_consistency(chopped, zigzag_paths(chopped)).consistent
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
    chopped = next(chop(m, action.elements, (2, 0)), None)
    assert validate(chopped).ok
    assert check_consistency(chopped, zigzag_paths(chopped)).consistent
    frame = exact_invariant_frame(
        poly_of(chopped), canonical_group("C4")
    )
    assert frame == convex_hull([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert find_symmetry(chopped, canonical_group("C4")) is not None


def test_corner_chop_trivial_group_matches_plain_cut():
    m = octagon_model()
    action = identity_action(m)
    chopped = next(chop(m, action.elements, (2, 0)), None)
    assert poly_of(chopped) == ((0, 0), (1, -1), (1, 1))


def test_corner_chop_unreachable_target_exhausts():
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    target = ((0, 0), (5, 0), (0, 5))
    assert next(chop(m, action.elements, (1, 1), target=target), None) is None


def test_corner_chop_dodecagon_c2_gives_diamond():
    m = dodecagon_model()
    action = find_symmetry(m, canonical_group("C2"))
    assert action is not None
    chopped = next(chop(m, action.elements, (1, 1)), None)
    assert validate(chopped).ok
    assert check_consistency(chopped, zigzag_paths(chopped)).consistent
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
    first = next(chop(m, action.elements, (1, 1)), None)
    assert reembed_calls
    seen = len(reembed_calls)
    assert next(chop(m, action.elements, (1, 1)), None) is first
    assert len(reembed_calls) == seen


def test_repeated_failing_chop_is_decided_once(reembed_calls):
    m = centered_square_cover()
    action = find_symmetry(m, canonical_group("C2"))
    target = ((0, 0), (5, 0), (0, 5))
    assert next(chop(m, action.elements, (1, 1), target=target), None) is None
    seen = len(reembed_calls)
    assert next(chop(m, action.elements, (1, 1), target=target), None) is None
    assert len(reembed_calls) == seen
    # the same deleted edges toward another target are a new candidate
    cold = centered_square_cover()
    want = next(chop(cold, canonical_group("C2"), (1, 1)), None)
    assert want is not None
    assert next(chop(m, action.elements, (1, 1)), None) == want


def test_budget_counts_edges_handled(reembed_calls):
    m = centered_square_cover()
    group = canonical_group("C2")
    frame = exact_invariant_frame(poly_of(m), group)
    args = (m, group, frame, (1, 1), 1, one_leg_rest(frame, group, (1, 1)))
    with pytest.raises(BudgetSpentError, match="0 of 0 edge units"):
        next(corner_cuts(*args, Budget(0)), None)
    budget = Budget(10**6)
    first = next(corner_cuts(*args, budget), None)
    assert reembed_calls
    # gathering the candidates, then each candidate decided
    assert budget.spent == len(m.edges) * (1 + len(reembed_calls))
    # kept verdicts are free: the same chop again costs the gathering
    spent = budget.spent
    assert next(corner_cuts(*args, budget), None) is first
    assert budget.spent == spent + len(m.edges)


def test_corner_cuts_yield_each_outcome_once():
    m = centered_square_cover()
    group = canonical_group("C2")
    cuts = list(chop(m, group, (1, 1)))
    assert cuts and next(chop(m, group, (1, 1)), None) is cuts[0]
    assert len({id(c) for c in cuts}) == len(cuts)
    for cut in cuts:
        assert exact_invariant_frame(poly_of(cut), group) == convex_hull(
            [(1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
        )


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
    assert next(chop(tri, group, frame[0], target=target), None) is None
    cut = next(chop(tri, group, frame[0], legs=2, target=target), None)
    assert validate(cut).ok
    assert check_consistency(cut, zigzag_paths(cut)).consistent
    assert exact_invariant_frame(poly_of(cut), group) == target
    assert find_symmetry(cut, group).fixed_faces()


def _chop_outcome(model, group, corner):
    try:
        cut = next(chop(model, group, corner), None)
    except DegenerateError as exc:
        # the chop would take the whole polygon off
        return type(exc), str(exc)
    return None if cut is None else (cut.nodes, cut.edges)


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
                    if not corner_cut_admissible(frame, mats, corner):
                        continue
                    cold = DimerModel(model.nodes, model.edges)
                    want = _chop_outcome(cold, mats, corner)
                    assert _chop_outcome(warm, mats, corner) == want
                    assert _chop_outcome(warm, mats, corner) == want
                    chops += 1
                    cuts += want is not None and not isinstance(want[0], type)
    assert chops > 150 and 50 < cuts < chops
