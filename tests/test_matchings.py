"""Tests for perfect-matching enumeration, height changes, and supports."""

import itertools
from fractions import Fraction

import pytest

from symdimer import matchings
from symdimer.construct import (
    dodecagon_model,
    hexagonal_model,
    octagon_model,
    square_model,
    synthesize,
    verify_bundle,
)
from symdimer.dimer import (
    WHITE,
    DimerModel,
    Edge,
    Node,
    NotSymmetricError,
    find_symmetry,
    frac_pt,
)
from symdimer.lattice import (
    GROUP_TAGS,
    DegenerateError,
    Mat2,
    canonical_group,
    convex_hull,
    exact_invariant_frame,
    normalize_translation,
)
from symdimer.matchings import (
    CapExceededError,
    NoInvariantMatchingError,
    OriginNotInPolygonError,
    characteristic_polygon,
    enumerate_matchings,
    height_change,
    invariant_matching_at_origin,
    max_weight_perfect_matching,
    support,
)
from symdimer.surgery import cover

from checks import apply_to_matching, is_perfect_matching

ALL_MODELS = [
    ("hexagonal", hexagonal_model),
    ("square", square_model),
    ("octagon", octagon_model),
    ("dodecagon", dodecagon_model),
]


def brute_force_matchings(model):
    """Independent check: try every edge subset of the right size."""
    whites = sum(1 for n in model.nodes if n.color == WHITE)
    found = []
    for combo in itertools.combinations(sorted(e.id for e in model.edges), whites):
        seen = set()
        for eid in combo:
            e = model.edge(eid)
            if e.white in seen or e.black in seen:
                break
            seen.add(e.white)
            seen.add(e.black)
        else:
            if len(seen) == len(model.nodes):
                found.append(tuple(combo))
    return found


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_enumeration_matches_brute_force(name, mk):
    model = mk()
    got = sorted(enumerate_matchings(model))
    assert got == brute_force_matchings(model)
    for m in got:
        assert is_perfect_matching(model, m)


def test_catalog_matching_counts():
    assert len(enumerate_matchings(hexagonal_model())) == 3
    assert len(enumerate_matchings(square_model())) == 4
    assert len(enumerate_matchings(octagon_model())) == 9
    assert len(enumerate_matchings(dodecagon_model())) == 17


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_every_edge_lies_in_some_matching(name, mk):
    model = mk()
    used = set()
    for m in enumerate_matchings(model):
        used.update(m)
    assert used == {e.id for e in model.edges}


def test_cap_exceeded_reports_partial_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_matchings(hexagonal_model(), cap=2)
    assert exc.value.count == 2
    assert len(enumerate_matchings(hexagonal_model(), cap=3)) == 3
    with pytest.raises(ValueError):
        enumerate_matchings(hexagonal_model(), cap=0)


def test_unbalanced_colors_give_no_matchings():
    nodes = [
        Node(0, "W", frac_pt((Fraction(1, 4), Fraction(1, 4)))),
        Node(1, "B", frac_pt((Fraction(3, 4), Fraction(1, 4)))),
        Node(2, "B", frac_pt((Fraction(1, 2), Fraction(3, 4)))),
    ]
    edges = [
        Edge(0, 0, 1, (0, 0)),
        Edge(1, 0, 2, (0, 0)),
        Edge(2, 0, 1, (-1, 0)),
    ]
    model = DimerModel(nodes, edges)
    assert enumerate_matchings(model) == []
    with pytest.raises(ValueError, match="^model has no perfect matching$"):
        characteristic_polygon(model)
    assert verify_bundle(model).notes == [
        "univalent nodes [2]",
        "faces with nonzero offset [0, 1]",
        "Euler count V-E+F = 2 != 0",
    ]


def test_height_changes_hexagonal():
    model = hexagonal_model()
    ms = enumerate_matchings(model)
    assert ms[0] == (0,)
    hts = {height_change(model, m, ms[0]) for m in ms}
    assert hts == {(0, 0), (0, 1), (-1, 0)}


def test_height_changes_square():
    model = square_model()
    ms = enumerate_matchings(model)
    assert ms[0] == (0,)
    hts = {height_change(model, m, ms[0]) for m in ms}
    assert hts == {(0, 0), (0, -1), (1, 0), (1, -1)}


def test_characteristic_polygons():
    assert characteristic_polygon(hexagonal_model()) == (
        (-1, 0), (0, 0), (0, 1),
    )
    assert characteristic_polygon(square_model()) == (
        (0, -1), (1, -1), (1, 0), (0, 0),
    )
    # These two are centered at the origin with no translation needed.
    assert characteristic_polygon(octagon_model()) == (
        (-1, 0), (0, -1), (1, 0), (0, 1),
    )
    assert characteristic_polygon(dodecagon_model()) == (
        (-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0),
    )


def enumerated_polygon(model):
    """Reference characteristic polygon: the hull of the absolute heights
    of every enumerated perfect matching."""
    ms = enumerate_matchings(model)
    if not ms:
        raise ValueError("model has no perfect matching")
    return convex_hull({height_change(model, m, ()) for m in ms})


def without_edge(model, eid):
    return DimerModel(model.nodes, [e for e in model.edges if e.id != eid])


def differential_cases():
    """The catalog models with their Hermite-normal-form covers of index
    at most 3 (2 for the dodecagon; index 1 is the model itself), and
    every single-edge deletion of the catalog models that keeps a
    perfect matching."""
    for name, mk in ALL_MODELS:
        model = mk()
        top = 2 if name == "dodecagon" else 3
        for a in range(1, top + 1):
            for d in range(1, top // a + 1):
                for b in range(a):
                    yield (name, (a, b, d)), cover(model, Mat2(a, b, 0, d))
        for e in model.edges:
            cut = without_edge(model, e.id)
            if enumerate_matchings(cut):
                yield (name, "without", e.id), cut


def test_oracle_polygon_agrees_with_enumeration():
    outcomes = set()
    for label, model in differential_cases():
        try:
            want = enumerated_polygon(model)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                characteristic_polygon(model)
            outcomes.add("degenerate")
            continue
        assert characteristic_polygon(model) == want, label
        outcomes.add("polygon")
    assert outcomes == {"polygon", "degenerate"}


def test_collinear_heights_are_degenerate():
    # Three collinear heights (-2,0), (-1,0), (0,0) on a double cover.
    model = cover(without_edge(hexagonal_model(), 1), Mat2(2, 0, 0, 1))
    heights = {height_change(model, m, ()) for m in enumerate_matchings(model)}
    assert heights == {(-2, 0), (-1, 0), (0, 0)}
    with pytest.raises(DegenerateError):
        characteristic_polygon(model)


def test_reference_shift_translates_polygon():
    model = octagon_model()
    ms = enumerate_matchings(model)
    a = convex_hull({height_change(model, m, ms[0]) for m in ms})
    b = convex_hull({height_change(model, m, ms[1]) for m in ms})
    assert a == characteristic_polygon(model)
    assert normalize_translation(a) == normalize_translation(b)


def test_matchings_at_corners_are_unique():
    model = octagon_model()
    ms = enumerate_matchings(model)
    heights = [height_change(model, m, ms[0]) for m in ms]
    for corner in [(-1, 0), (0, -1), (1, 0), (0, 1)]:
        assert heights.count(corner) == 1
    assert heights.count((0, 0)) == 9 - 4


def test_matching_action_equivariance():
    model = octagon_model()
    action = find_symmetry(model, canonical_group("D8"))
    ms = enumerate_matchings(model)
    ref = ms[0]
    for h in action.elements:
        href = apply_to_matching(action, h, ref)
        for m in ms:
            moved = apply_to_matching(action, h, m)
            assert is_perfect_matching(model, moved)
            assert height_change(model, moved, href) == h.apply(
                height_change(model, m, ref)
            )


def test_invariant_matching_octagon():
    model = octagon_model()
    action = find_symmetry(model, canonical_group("D8"))
    inv = invariant_matching_at_origin(model, action)
    assert inv == (0, 2, 5, 7)
    ref = enumerate_matchings(model)[0]
    assert height_change(model, inv, ref) == (0, 0)
    for h in action.elements:
        assert apply_to_matching(action, h, inv) == inv


def test_invariant_matching_orbit_fallback(monkeypatch):
    # The orbit search needs only a handful of search nodes on the
    # symmetric catalog models; a tiny bound must give the same matching.
    model = octagon_model()
    action = find_symmetry(model, canonical_group("D8"))
    monkeypatch.setattr(matchings, "SEARCH_BOUND", 3)
    assert invariant_matching_at_origin(model, action) == (0, 2, 5, 7)
    model = dodecagon_model()
    action = find_symmetry(model, canonical_group("D12"))
    monkeypatch.undo()
    full = invariant_matching_at_origin(model, action)
    assert full == (0, 2, 4, 6, 8, 10)
    monkeypatch.setattr(matchings, "SEARCH_BOUND", 2)
    assert invariant_matching_at_origin(model, action) == full


def origin_height(model, action):
    """Absolute height of the origin of the invariant frame."""
    hull = characteristic_polygon(model)
    frame = exact_invariant_frame(hull, action.elements)
    return (hull[0][0] - frame[0][0], hull[0][1] - frame[0][1])


def test_origin_matching_needs_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_matchings called")

    monkeypatch.setattr(matchings, "enumerate_matchings", refuse)
    for tag, polygon in [
        ("C6", [(2, 0), (2, 2), (0, 2), (-2, 0), (-2, -2), (0, -2)]),
        ("D8", [(-2, -2), (2, -2), (2, 2), (-2, 2)]),
    ]:
        sd = synthesize(polygon, list(canonical_group(tag)))
        found = invariant_matching_at_origin(sd.model, sd.action)
        assert is_perfect_matching(sd.model, found)
        assert height_change(sd.model, found, ()) == origin_height(sd.model, sd.action)
        for h in sd.action.elements:
            assert apply_to_matching(sd.action, h, found) == found
        assert invariant_matching_at_origin(sd.model, sd.action) == found


def test_origin_matching_search_is_bounded(monkeypatch):
    model = cover(square_model(), Mat2(2, 0, 0, 2))
    action = find_symmetry(model, canonical_group("TRIVIAL"))
    assert invariant_matching_at_origin(model, action)
    monkeypatch.setattr(matchings, "SEARCH_BOUND", 3)
    with pytest.raises(NoInvariantMatchingError, match="bound of 3"):
        invariant_matching_at_origin(model, action)


def two_pass_origin_matching(model, action):
    """Independent route to the invariant origin matching, in two
    enumerations: find some matching at the origin of the invariant frame,
    then re-enumerate and keep the matchings of zero height change against
    it.  None when the polygon has no invariant placement or no such
    matching is fixed by the group."""
    ms = enumerate_matchings(model)
    heights = [height_change(model, m, ms[0]) for m in ms]
    hull = convex_hull(heights)
    try:
        frame = exact_invariant_frame(hull, action.elements)
    except ValueError:
        return None
    want = (hull[0][0] - frame[0][0], hull[0][1] - frame[0][1])
    anchor = next((m for m, h in zip(ms, heights) if h == want), None)
    if anchor is None:
        return None
    for m in enumerate_matchings(model):
        if height_change(model, m, anchor) != (0, 0):
            continue
        if all(apply_to_matching(action, h, m) == m for h in action.elements):
            return m
    return None


def hnf_covers(model, index):
    """The covers of the model by sublattice bases [[a,b],[0,d]] in
    Hermite normal form (0 <= b < a) with a*d = index."""
    for a in range(1, index + 1):
        if index % a == 0:
            for b in range(a):
                yield (a, b, index // a), cover(model, Mat2(a, b, 0, index // a))


def check_against_the_two_pass_reference(indices):
    checked = 0
    for name, mk in ALL_MODELS:
        for basis, model in (c for i in indices for c in hnf_covers(mk(), i)):
            for tag in GROUP_TAGS:
                try:
                    action = find_symmetry(model, canonical_group(tag))
                except NotSymmetricError:
                    continue
                if not action.fixed_faces():
                    continue
                want = two_pass_origin_matching(model, action)
                try:
                    got = invariant_matching_at_origin(model, action)
                except (NoInvariantMatchingError, OriginNotInPolygonError):
                    got = None
                assert got == want, (name, basis, tag)
                checked += 1
    return checked


def test_origin_matching_agrees_with_the_two_pass_reference():
    assert check_against_the_two_pass_reference([1, 2]) == 49


@pytest.mark.slow
def test_origin_matching_agrees_with_the_two_pass_reference_at_index_3():
    assert check_against_the_two_pass_reference([3]) == 32


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_support_agrees_with_enumeration(name, mk):
    model = mk()
    ms = enumerate_matchings(model)
    for u in [(1, 0), (0, 1), (-1, 0), (0, -1), (2, 1), (-1, -3), (3, -2)]:
        value, best = support(model, u)
        assert is_perfect_matching(model, best)
        hts = [height_change(model, m, ()) for m in ms]
        assert value == max(h[0] * u[0] + h[1] * u[1] for h in hts)
        bh = height_change(model, best, ())
        assert bh[0] * u[0] + bh[1] * u[1] == value


BIG = 1 << 40


def dense_min_cost_assignment(cost):
    """Hungarian algorithm on a dense n x n cost matrix; for each column
    the assigned row (1-based), or None when no perfect assignment avoids
    the non-edge cost BIG."""
    n = len(cost)
    inf = BIG * (n + 1)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0 or delta >= inf:
                return None
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [p[j] for j in range(1, n + 1)]


def dense_max_weight_perfect_matching(model, weights):
    """Reference oracle: the heaviest edge of each (white, black) pair in
    an n x n cost matrix, BIG for non-edges, solved by the Hungarian
    algorithm in O(n^3).  None when there is no perfect matching."""
    whites = sorted(n.id for n in model.nodes if n.color == WHITE)
    blacks = sorted(n.id for n in model.nodes if n.color != WHITE)
    if len(whites) != len(blacks) or not whites:
        return None
    wi = {nid: i for i, nid in enumerate(whites)}
    bi = {nid: j for j, nid in enumerate(blacks)}
    n = len(whites)
    best = [[None] * n for _ in range(n)]
    for e in model.edges:
        i, j = wi[e.white], bi[e.black]
        w = weights.get(e.id, 0)
        if best[i][j] is None or w > weights.get(best[i][j], 0):
            best[i][j] = e.id
    cost = [
        [BIG if eid is None else -weights.get(eid, 0) for eid in row]
        for row in best
    ]
    rows = dense_min_cost_assignment(cost)
    if rows is None:
        return None
    out = [best[i - 1][j] for j, i in enumerate(rows)]
    return None if None in out else tuple(sorted(out))


def test_sparse_oracle_agrees_with_the_dense_reference(monkeypatch):
    """On every HNF cover of index <= 4 of the catalog models, each
    direction the gift wrap asks gets the same support value from the
    sparse oracle and the dense Hungarian, and the sparse matching is
    perfect and reaches that value."""
    asked = []

    def recording(model, direction):
        asked.append(direction)
        return support(model, direction)

    monkeypatch.setattr(matchings, "support", recording)
    queries = 0
    for name, mk in ALL_MODELS:
        for index in range(1, 5):
            for basis, model in hnf_covers(mk(), index):
                asked.clear()
                characteristic_polygon(model)
                for ux, uy in asked:
                    weights = {e.id: e.offset[0] * uy - e.offset[1] * ux for e in model.edges}
                    value, sparse = support(model, (ux, uy))
                    dense = dense_max_weight_perfect_matching(model, weights)
                    assert is_perfect_matching(model, sparse), (name, basis)
                    assert is_perfect_matching(model, dense), (name, basis)
                    assert sum(weights[e] for e in dense) == value, (name, basis, (ux, uy))
                    h = height_change(model, sparse, ())
                    assert h[0] * ux + h[1] * uy == value
                    queries += 1
    assert queries > 500


def test_a_balanced_model_without_a_perfect_matching_is_refused():
    # Every node has an edge, but whites 0 and 1 share their only
    # neighbour, black 3, so Hall's condition fails and the oracle's
    # search for an augmenting path comes back empty.
    nodes = [
        Node(0, "W", frac_pt((Fraction(1, 8), Fraction(1, 4)))),
        Node(1, "W", frac_pt((Fraction(3, 8), Fraction(1, 4)))),
        Node(2, "W", frac_pt((Fraction(5, 8), Fraction(1, 4)))),
        Node(3, "B", frac_pt((Fraction(1, 4), Fraction(3, 4)))),
        Node(4, "B", frac_pt((Fraction(1, 2), Fraction(3, 4)))),
        Node(5, "B", frac_pt((Fraction(3, 4), Fraction(3, 4)))),
    ]
    edges = [
        Edge(0, 0, 3, (0, 0)),
        Edge(1, 1, 3, (0, 0)),
        Edge(2, 2, 4, (0, 0)),
        Edge(3, 2, 5, (0, 0)),
    ]
    model = DimerModel(nodes, edges)
    assert enumerate_matchings(model) == []
    assert max_weight_perfect_matching(model, {}) is None
    assert dense_max_weight_perfect_matching(model, {}) is None
    with pytest.raises(ValueError, match="^model has no perfect matching$"):
        support(model, (1, 0))


def test_max_weight_matching_prefers_heavy_edges():
    model = square_model()
    weights = {0: 5, 1: 0, 2: 0, 3: 1}
    assert max_weight_perfect_matching(model, weights) == (0,)
    weights = {0: 0, 1: 7, 2: 0, 3: 1}
    assert max_weight_perfect_matching(model, weights) == (1,)
