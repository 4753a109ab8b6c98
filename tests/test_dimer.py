import itertools
from fractions import Fraction

import pytest

from symdimer.construct import (
    dodecagon_model,
    hexagonal_model,
    octagon_model,
    square_model,
    transform_model,
)
from symdimer.dimer import (
    BLACK,
    WHITE,
    DimerModel,
    Edge,
    ElementAction,
    MergeLoopError,
    NoFixedFaceError,
    Node,
    NotSymmetricError,
    SymmetryAction,
    TwoEdgesSameDirectionError,
    UnknownElementError,
    _crossing_pairs,
    _face_perm_from_sides,
    _generating_words,
    _scaled_segments,
    _segments_conflict,
    face_offset_sum,
    faces,
    find_symmetry,
    fixed_face,
    frac_pt,
    remove_divalent,
    rotation_system,
    symmetry_actions,
    validate,
)
from symdimer.lattice import GROUP_TAGS, Mat2, canonical_group
from symdimer.surgery import cover
from symdimer.zigzag import zigzag_paths

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


# References for the binned crossing test and the incremental divalent
# merge: every pair of edges against every translate, and a merge loop
# that rescans every edge for each node's degree.


def all_pairs_crossing_pairs(model):
    scale, segs = _scaled_segments(model)
    ids = sorted(segs)
    boxes = {}
    for eid in ids:
        (x1, y1), (x2, y2) = segs[eid]
        boxes[eid] = (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    bad = []
    for i, e1 in enumerate(ids):
        p1, p2 = segs[e1]
        bx1 = boxes[e1]
        for e2 in ids[i:]:
            q1, q2 = segs[e2]
            bx2 = boxes[e2]
            txs = range(
                -((bx2[2] - bx1[0]) // scale) - 1, (bx1[2] - bx2[0]) // scale + 2
            )
            tys = range(
                -((bx2[3] - bx1[1]) // scale) - 1, (bx1[3] - bx2[1]) // scale + 2
            )
            hit = False
            for tx in txs:
                for ty in tys:
                    if e1 == e2 and tx == 0 and ty == 0:
                        continue
                    dx, dy = tx * scale, ty * scale
                    if (
                        bx2[0] + dx > bx1[2]
                        or bx2[2] + dx < bx1[0]
                        or bx2[1] + dy > bx1[3]
                        or bx2[3] + dy < bx1[1]
                    ):
                        continue
                    if _segments_conflict(
                        p1, p2, (q1[0] + dx, q1[1] + dy), (q2[0] + dx, q2[1] + dy)
                    ):
                        bad.append((e1, e2))
                        hit = True
                        break
                if hit:
                    break
    return bad


def quadratic_remove_divalent(model):
    nodes = {n.id: n for n in model.nodes}
    edges = {e.id: e for e in model.edges}

    def degree(nid):
        return sum(1 for e in edges.values() if nid in (e.white, e.black))

    while True:
        div = None
        for nid in sorted(nodes):
            if degree(nid) == 2:
                div = nid
                break
        if div is None:
            break
        v = nodes[div]
        inc = sorted(e.id for e in edges.values() if div in (e.white, e.black))
        e1, e2 = edges[inc[0]], edges[inc[1]]
        if v.color == WHITE:
            n1, n2 = e1.black, e2.black
        else:
            n1, n2 = e1.white, e2.white
        o1, o2 = e1.offset, e2.offset
        if n1 == n2:
            raise MergeLoopError(f"divalent node {div} has a single neighbor {n1}")
        merged = Node(id=v.id, color=nodes[n1].color, pos=v.pos)
        del edges[e1.id]
        del edges[e2.id]
        del nodes[div]
        del nodes[n1]
        del nodes[n2]
        nodes[merged.id] = merged
        for eid in sorted(edges):
            e = edges[eid]
            if e.white in (n1, n2):
                shift = o1 if e.white == n1 else o2
                edges[eid] = Edge(
                    e.id, merged.id, e.black,
                    (e.offset[0] - shift[0], e.offset[1] - shift[1]),
                )
            elif e.black in (n1, n2):
                shift = o1 if e.black == n1 else o2
                edges[eid] = Edge(
                    e.id, e.white, merged.id,
                    (e.offset[0] - shift[0], e.offset[1] - shift[1]),
                )
    return DimerModel(nodes.values(), edges.values())


def _merge_outcome(merge, model):
    try:
        out = merge(model)
    except MergeLoopError as exc:
        return str(exc)
    return out.nodes, out.edges


CATALOG = (hexagonal_model, square_model, octagon_model, dodecagon_model)


def catalog_covers():
    """(label, model) for the catalog models and their Hermite-normal-form
    covers of index 2 and 3."""
    for mk in CATALOG:
        model = mk()
        yield mk.__name__, model
        for a in (1, 2, 3):
            for d in range(1, 3 // a + 1):
                for b in range(a):
                    if a * d > 1:
                        yield (mk.__name__, (a, b, d)), cover(model, Mat2(a, b, 0, d))


def _swap_first_pair(model):
    """The model with the positions of its first node and the next node of
    the same colour exchanged, or None when that colour has one node."""
    first = model.nodes[0]
    other = next((n for n in model.nodes[1:] if n.color == first.color), None)
    if other is None:
        return None
    swap = {first.id: other.pos, other.id: first.pos}
    return DimerModel(
        [Node(n.id, n.color, swap.get(n.id, n.pos)) for n in model.nodes],
        model.edges,
    )


def test_binned_and_incremental_agree_with_the_references():
    """On the catalog covers and on every deletion of the shared edges of
    two zigzag paths: before the merge (divalent nodes left in), after
    it (old positions kept) and with two nodes of one colour swapped
    (often with crossings)."""
    compared = crossing = merged = loops = 0
    for _label, model in catalog_covers():
        assert _crossing_pairs(model) == all_pairs_crossing_pairs(model) == []
        paths = zigzag_paths(model)
        for z1, z2 in itertools.combinations(paths, 2):
            shared = set(z1.edge_ids()) & set(z2.edge_ids())
            kept = [e for e in model.edges if e.id not in shared]
            if not shared or any(len(set(model.edges_at(n.id)) - shared) < 2
                                 for n in model.nodes):
                continue
            cut = DimerModel(model.nodes, kept)
            got = _merge_outcome(remove_divalent, cut)
            assert got == _merge_outcome(quadratic_remove_divalent, cut)
            checked = [cut]
            if not isinstance(got, str):
                checked.append(DimerModel(*got))
                swapped = _swap_first_pair(checked[-1])
                if swapped is not None:
                    checked.append(swapped)
            for m in checked:
                pairs = _crossing_pairs(m)
                assert pairs == all_pairs_crossing_pairs(m)
                compared += 1
                crossing += bool(pairs)
            merged += not isinstance(got, str)
            loops += isinstance(got, str)
    assert compared > 400 and crossing > 50 and merged and loops


# Markings with an entry of +-3 stretch edges across several torus widths,
# so an edge meets its torus cells under several translates.
MARKINGS = [
    Mat2(a, b, c, d)
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if a * d - b * c in (1, -1) and 3 in (abs(a), abs(b), abs(c), abs(d))
]


def marked_covers(indices):
    """The catalog models' Hermite-normal-form covers of the given indices
    under every marking of MARKINGS."""
    for mk in CATALOG:
        model = mk()
        for a, d in itertools.product(range(1, 5), repeat=2):
            if a * d in indices:
                for b in range(a):
                    c = cover(model, Mat2(a, b, 0, d)) if a * d > 1 else model
                    for m in MARKINGS:
                        yield transform_model(c, m)


def test_binned_crossings_agree_with_the_reference_under_markings():
    """The catalog models under every marking and, where a colour has two
    nodes, with two of them swapped (long crossing edges)."""
    compared = crossing = 0
    for model in marked_covers({1}):
        swapped = _swap_first_pair(model)
        for m in [model] if swapped is None else [model, swapped]:
            pairs = _crossing_pairs(m)
            assert pairs == all_pairs_crossing_pairs(m)
            compared += 1
            crossing += bool(pairs)
    assert len(MARKINGS) == 128 and compared == 6 * 128 and crossing > 200


@pytest.mark.slow
def test_binned_crossings_agree_with_the_reference_on_marked_covers():
    compared = 0
    for model in marked_covers({2, 3, 4}):
        assert _crossing_pairs(model) == all_pairs_crossing_pairs(model) == []
        compared += 1
    assert compared == 56 * 128


def _segments_model(nodes, edges):
    """A model from (id, colour, (x, y)) nodes and (white, black, offset)
    edges, numbered in order; it need not be a valid dimer model."""
    return DimerModel(
        [Node(i, c, (F(x), F(y))) for i, c, (x, y) in nodes],
        [Edge(k, w, b, off) for k, (w, b, off) in enumerate(edges)],
    )


def test_parallel_edges_at_a_shared_node_get_the_exact_test():
    """Edges 0 and 1 leave node 0 in one direction and overlap; edge 2
    leaves it in the opposite one and meets only node 0 there, but its
    translate by (1, 0) overlaps edge 0 and meets edge 1 at their shared
    black end.  Edge 3 leaves node 0 at a right angle."""
    model = _segments_model(
        [(0, WHITE, (0, 0)), (1, BLACK, ("1/2", 0)), (2, BLACK, ("1/4", 0)),
         (3, BLACK, (0, "1/2"))],
        [(0, 1, (0, 0)), (0, 2, (0, 0)), (0, 2, (-1, 0)), (0, 3, (0, 0))],
    )
    assert _crossing_pairs(model) == all_pairs_crossing_pairs(model) == [(0, 1), (0, 2)]


@pytest.mark.parametrize(
    "black,offset",
    [(("1/4", "1/4"), (1, 1)), (("1/2", 0), (2, 0)), ((0, "1/3"), (0, -2))],
)
def test_an_edge_longer_than_its_period_overlaps_its_translate(black, offset):
    model = _segments_model(
        [(0, WHITE, (0, 0)), (1, BLACK, black)], [(0, 1, offset)]
    )
    assert _crossing_pairs(model) == all_pairs_crossing_pairs(model) == [(0, 0)]
    short = _segments_model([(0, WHITE, (0, 0)), (1, BLACK, black)], [(0, 1, (0, 0))])
    assert _crossing_pairs(short) == all_pairs_crossing_pairs(short) == []


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
    for mk, tag in SYMMETRY_CASES:
        act = find_symmetry(mk(), canonical_group(tag))
        for g in act.elements:
            for h in act.elements:
                gh = g.mul(h)
                for kind in ("node_perm", "edge_perm", "face_perm"):
                    pg, ph, pgh = (getattr(act.maps[x], kind) for x in (g, h, gh))
                    for k in ph:
                        assert pg[ph[k]] == pgh[k], (mk.__name__, tag, kind, g, h, k)
                # translations compose through the linear parts modulo Z^2
                tg, th = act.maps[g].translation, act.maps[h].translation
                step = act.maps[g].linear.apply(th)
                want = ((step[0] + tg[0]) % 1, (step[1] + tg[1]) % 1)
                assert act.maps[gh].translation == want, (mk.__name__, tag, g, h)


def obeys_composition_law(act):
    """Whether the maps of every pair of elements g, h compose to the map
    of g h: node, edge and face permutations, and translations through
    the linear parts modulo Z^2."""
    for g in act.elements:
        for h in act.elements:
            ag, ah, agh = act.maps[g], act.maps[h], act.maps[g.mul(h)]
            for kind in ("node_perm", "edge_perm", "face_perm"):
                pg, ph, pgh = (getattr(a, kind) for a in (ag, ah, agh))
                if any(pg[ph[k]] != pgh[k] for k in ph):
                    return False
            step = ag.linear.apply(ah.translation)
            want = ((step[0] + ag.translation[0]) % 1, (step[1] + ag.translation[1]) % 1)
            if agh.translation != want:
                return False
    return True


def product_symmetry_actions(model, elements):
    """Reference search: the product over generators of one candidate
    translation per node of a color, for every combination a Fraction
    node, edge and face map of every group element, kept when the maps
    obey the composition law."""
    elems = tuple(sorted(set(elements)))
    gens, words = _generating_words(elems)
    lin = {h: h.contragredient() for h in elems}
    face_list = faces(model)
    pos_index = {n.pos: n.id for n in model.nodes}
    edge_index = {(e.white, e.black, e.offset): e.id for e in model.edges}
    side_to_face = {side: f.id for f in face_list for side in f.boundary}

    def required_color(h, color):
        return color if h.det() == 1 else (BLACK if color == WHITE else WHITE)

    def element_map(h, t):
        node_perm, kappa = {}, {}
        for n in model.nodes:
            x, y = lin[h].apply(n.pos)
            img = (x + t[0], y + t[1])
            img_mod = frac_pt(img)
            target = pos_index.get(img_mod)
            if target is None or model.node(target).color != required_color(h, n.color):
                return None
            node_perm[n.id] = target
            kappa[n.id] = (int(img[0] - img_mod[0]), int(img[1] - img_mod[1]))
        edge_perm = {}
        for e in model.edges:
            lo = lin[h].apply(e.offset)
            kw, kb = kappa[e.white], kappa[e.black]
            if h.det() == 1:
                key = (node_perm[e.white], node_perm[e.black],
                       (lo[0] + kb[0] - kw[0], lo[1] + kb[1] - kw[1]))
            else:
                key = (node_perm[e.black], node_perm[e.white],
                       (kw[0] - kb[0] - lo[0], kw[1] - kb[1] - lo[1]))
            if key not in edge_index:
                return None
            edge_perm[e.id] = edge_index[key]
        if len(set(node_perm.values())) != len(node_perm):
            return None
        if len(set(edge_perm.values())) != len(edge_perm):
            return None
        return node_perm, edge_perm

    def candidates(g):
        base = model.nodes[0]
        img = lin[g].apply(base.pos)
        want = required_color(g, base.color)
        return sorted({frac_pt((n.pos[0] - img[0], n.pos[1] - img[1]))
                       for n in model.nodes if n.color == want})

    for choice in itertools.product(*(candidates(g) for g in gens)):
        maps = {}
        for h in elems:
            # the word g1 g2 ... acts as map(g1) after map(g2) after ...
            t, lin_tot = (F(0), F(0)), Mat2.identity()
            for gi in words[h]:
                step = lin_tot.apply(choice[gi])
                t = (t[0] + step[0], t[1] + step[1])
                lin_tot = lin_tot.mul(lin[gens[gi]])
            t = frac_pt(t)
            res = element_map(h, t)
            if res is None:
                break
            face_perm = _face_perm_from_sides(model, face_list, side_to_face, res[1])
            if face_perm is None:
                break
            maps[h] = ElementAction(h, lin[h], t, res[0], res[1], face_perm)
        else:
            act = SymmetryAction(elements=elems, maps=maps)
            if obeys_composition_law(act):
                yield act


def action_record(act):
    """Everything an action carries, dict orders included."""
    return act.elements, [
        (h, a.element, a.linear, a.translation, list(a.node_perm.items()),
         list(a.edge_perm.items()), list(a.face_perm.items()))
        for h, a in act.maps.items()
    ]


def symmetry_search_cases():
    """The catalog models, their Hermite-normal-form covers of index 2
    and 3, and every single-edge deletion of a catalog model that is
    still a valid dimer model."""
    yield from catalog_covers()
    for mk in CATALOG:
        model = mk()
        for e in model.edges:
            cut = DimerModel(model.nodes, [x for x in model.edges if x.id != e.id])
            if validate(cut).ok:
                yield (mk.__name__, "without", e.id), cut


def test_symmetry_search_agrees_with_the_product_search():
    yielded = acting = silent = 0
    for label, model in symmetry_search_cases():
        for tag in GROUP_TAGS:
            group = canonical_group(tag)
            want = [action_record(a) for a in product_symmetry_actions(model, group)]
            got = [action_record(a) for a in symmetry_actions(model, group)]
            assert got == want, (label, tag)
            yielded += len(got)
            acting += bool(got)
            silent += not got
    assert acting and silent and yielded > acting


def test_every_yielded_action_is_a_group_action():
    yielded = 0
    for label, model in symmetry_search_cases():
        for tag in GROUP_TAGS:
            for act in symmetry_actions(model, canonical_group(tag)):
                assert obeys_composition_law(act), (label, tag)
                yielded += 1
    assert yielded > 100


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
    assert act2.fixed_faces() == []
    with pytest.raises(NoFixedFaceError):
        fixed_face(act2)


def test_apply_isometry_unknown_element():
    act = find_symmetry(hexagonal_model(), canonical_group("C3"))
    with pytest.raises(UnknownElementError):
        act.node_perm(Mat2.from_rows([[0, -1], [1, 0]]))
