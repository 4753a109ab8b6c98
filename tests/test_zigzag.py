"""Tests for zigzag paths, slopes, the side polygon, and consistency.

check_consistency is cross-checked against consistency_via_cover, a
bounded check of the same conditions directly on lifts of the paths to
the universal cover, kept here as the reference.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest

from symdimer.construct import (
    dodecagon_model,
    hexagonal_model,
    octagon_model,
    square_model,
)
from symdimer.dimer import DimerModel, Edge, validate
from symdimer.lattice import Vec, normalize_translation
from symdimer.matchings import characteristic_polygon
from symdimer.zigzag import (
    NonPrimitiveSlopeError,
    NotClosedError,
    ZigzagPath,
    check_consistency,
    zigzag_paths,
    zigzag_polygon,
)

# ---------------------------------------------------------------------------
# The universal-cover reference


class WindowTooSmallError(Exception):
    """The translate window cannot hold the lifted paths."""


@dataclass(frozen=True)
class CoverIntersection:
    edge: int
    translate: Vec  # translate of the shared edge copy
    lift: Vec  # which lift of the second path meets the base lift of the first
    time1: int
    time2: int


def _walk_translates(model: DimerModel, path: ZigzagPath) -> List[Vec]:
    """Translate of the edge copy used by each side of the base lift."""
    out = []
    tx = ty = 0
    for eid, d in path.sides:
        o = model.edge(eid).offset
        if d == 1:
            out.append((tx, ty))
            tx += o[0]
            ty += o[1]
        else:
            tx -= o[0]
            ty -= o[1]
            out.append((tx, ty))
    return out


def _span(vals: Iterable[Vec]) -> int:
    m = 0
    for v in vals:
        m = max(m, abs(v[0]), abs(v[1]))
    return m


def universal_cover_intersections(
    model: DimerModel,
    z1: ZigzagPath,
    z2: ZigzagPath,
    window: int,
) -> List[CoverIntersection]:
    """Shared edge copies between the base lift of z1 and every lift of z2
    whose translate lies in the window box.  Identical parameter points are
    skipped when z1 and z2 are the same path."""
    w1 = _walk_translates(model, z1)
    w2 = _walk_translates(model, z2)
    need = max(_span(w1), _span(w2), _span([z1.slope, z2.slope])) + 1
    if window < need:
        raise WindowTooSmallError(
            f"window {window} below required {need}"
        )

    def copies(path: ZigzagPath, walk: List[Vec]):
        u = path.slope
        out = {}
        n = len(path.sides)
        if u == (0, 0):
            ks: Sequence[int] = (0,)
        else:
            reach = 3 * window + 2 * _span(walk) + 2
            ks = range(-reach, reach + 1)
        for i, (eid, _) in enumerate(path.sides):
            base = walk[i]
            for k in ks:
                t = (base[0] + k * u[0], base[1] + k * u[1])
                if abs(t[0]) <= window and abs(t[1]) <= window:
                    out.setdefault((eid, t), []).append(i + k * n)
        return out

    c1 = copies(z1, w1)
    c2 = copies(z2, w2)
    same = z1.sides == z2.sides

    def deck_shift(s: Vec) -> Optional[int]:
        # k such that s = k * slope: translating a lift by a multiple of its
        # slope gives the same curve with parameters shifted by k periods
        u = z1.slope
        if u == (0, 0):
            return 0 if s == (0, 0) else None
        for k_num, k_den in ((s[0], u[0]), (s[1], u[1])):
            if k_den != 0:
                if k_num % k_den != 0:
                    return None
                k = k_num // k_den
                if (k * u[0], k * u[1]) == s:
                    return k
                return None
        return None

    records = []
    for s_x in range(-window, window + 1):
        for s_y in range(-window, window + 1):
            s = (s_x, s_y)
            shift = deck_shift(s) if same else None
            for (eid, t2), times2 in c2.items():
                t = (t2[0] + s[0], t2[1] + s[1])
                if abs(t[0]) > window or abs(t[1]) > window:
                    continue
                times1 = c1.get((eid, t))
                if not times1:
                    continue
                for time1 in times1:
                    for time2 in times2:
                        if shift is not None and time1 - time2 == shift * len(z1.sides):
                            continue
                        records.append(
                            CoverIntersection(
                                edge=eid, translate=t, lift=s,
                                time1=time1, time2=time2,
                            )
                        )
    records.sort(key=lambda r: (r.lift, r.time1, r.time2, r.edge))
    return records


def consistency_via_cover(
    model: DimerModel, window: Optional[int] = None
) -> Tuple[bool, List[str]]:
    """Direct bounded check of the cover conditions: no trivial class, no
    lift meeting itself or a translate of itself, and no pair of lifts
    intersecting twice in the same direction."""
    paths = zigzag_paths(model)
    reasons: List[str] = []
    for p in paths:
        if p.slope == (0, 0):
            reasons.append(f"path {p.id} is homologically trivial")
    if window is None:
        span = max(
            (_span(_walk_translates(model, p)) for p in paths), default=0
        )
        maxslope = max((_span([p.slope]) for p in paths), default=0)
        window = span + 2 * maxslope + 2
    for a in range(len(paths)):
        for b in range(a, len(paths)):
            recs = universal_cover_intersections(model, paths[a], paths[b], window)
            if a == b:
                if recs:
                    reasons.append(
                        f"lifts of path {a} intersect (edge {recs[0].edge})"
                    )
                continue
            by_lift: Dict[Vec, List[CoverIntersection]] = {}
            for r in recs:
                by_lift.setdefault(r.lift, []).append(r)
            for s, group in sorted(by_lift.items()):
                hit = False
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        d1 = group[i].time1 - group[j].time1
                        d2 = group[i].time2 - group[j].time2
                        if d1 * d2 > 0:
                            reasons.append(
                                f"paths {a} and {b} meet twice in the same "
                                f"direction (lift {s})"
                            )
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
    return (not reasons, reasons)


# ---------------------------------------------------------------------------


ALL_MODELS = [
    ("hexagonal", hexagonal_model),
    ("square", square_model),
    ("octagon", octagon_model),
    ("dodecagon", dodecagon_model),
]


def with_offsets(model, changes):
    """Copy of the model with some edge offsets replaced."""
    table = dict(changes)
    edges = [
        e if e.id not in table else Edge(e.id, e.white, e.black, table[e.id])
        for e in model.edges
    ]
    return DimerModel(model.nodes, edges)


def test_path_counts_and_slopes():
    expected = {
        "hexagonal": (3, {(0, -1), (1, 0), (-1, 1)}),
        "square": (4, {(1, 0), (-1, 0), (0, 1), (0, -1)}),
        "octagon": (4, {(1, 1), (1, -1), (-1, 1), (-1, -1)}),
        "dodecagon": (6, {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)}),
    }
    for name, mk in ALL_MODELS:
        paths = zigzag_paths(mk())
        count, slopes = expected[name]
        assert len(paths) == count
        assert {p.slope for p in paths} == slopes
        total = [sum(p.slope[0] for p in paths), sum(p.slope[1] for p in paths)]
        assert total == [0, 0]


def test_hexagonal_paths_exactly():
    paths = zigzag_paths(hexagonal_model())
    data = [(p.id, p.slope, p.sides) for p in paths]
    assert data == [
        (0, (0, -1), ((0, 1), (2, -1))),
        (1, (1, 0), ((0, -1), (1, 1))),
        (2, (-1, 1), ((1, -1), (2, 1))),
    ]


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_paths_cover_each_edge_once_per_direction(name, mk):
    model = mk()
    seen = []
    for p in zigzag_paths(model):
        seen.extend(p.sides)
    expected = [(e.id, d) for e in model.edges for d in (1, -1)]
    assert sorted(seen) == sorted(expected)


def test_zigzag_polygon_examples():
    diamond = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert zigzag_polygon(diamond) == ((0, 0), (1, -1), (2, 0), (1, 1))
    axes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert zigzag_polygon(axes) == ((0, 0), (1, 0), (1, 1), (0, 1))
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    assert zigzag_polygon(hexagon) == ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))


def test_zigzag_polygon_rejects_bad_slope_lists():
    with pytest.raises(NotClosedError):
        zigzag_polygon([])
    with pytest.raises(NotClosedError):
        zigzag_polygon([(0, 0), (0, 0)])
    with pytest.raises(NotClosedError):
        zigzag_polygon([(1, 0), (0, 1)])
    with pytest.raises(NonPrimitiveSlopeError):
        zigzag_polygon([(2, 0), (-2, 0)])


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_side_polygon_matches_characteristic_polygon(name, mk):
    model = mk()
    slopes = [p.slope for p in zigzag_paths(model)]
    assert zigzag_polygon(slopes) == normalize_translation(
        characteristic_polygon(model)
    )


@pytest.mark.parametrize("name,mk", ALL_MODELS)
def test_catalog_models_are_consistent(name, mk):
    model = mk()
    verdict = check_consistency(model)
    assert verdict.consistent, verdict.failures()
    assert verdict.failures() == []
    ok, reasons = consistency_via_cover(model)
    assert ok, reasons


def test_nonprimitive_slope_witness():
    model = with_offsets(octagon_model(), [(0, (0, 0))])
    assert validate(model).ok
    verdict = check_consistency(model)
    assert not verdict.consistent
    assert verdict.nonprimitive
    assert verdict.shared_edges
    ok, reasons = consistency_via_cover(model)
    assert not ok


def test_equal_slope_sharing_witness():
    model = with_offsets(dodecagon_model(), [(12, (-1, 0))])
    assert validate(model).ok
    verdict = check_consistency(model)
    assert not verdict.consistent
    assert not verdict.zero_slope
    assert not verdict.nonprimitive
    assert verdict.shared_edges
    ok, reasons = consistency_via_cover(model)
    assert not ok


def test_trivial_class_witness():
    model = with_offsets(octagon_model(), [(0, (0, 0)), (1, (1, 0))])
    assert validate(model).ok
    verdict = check_consistency(model)
    assert not verdict.consistent
    assert verdict.zero_slope
    ok, reasons = consistency_via_cover(model)
    assert not ok
    assert any("trivial" in r for r in reasons)


def test_cover_intersections_transverse_pair():
    model = octagon_model()
    paths = zigzag_paths(model)
    p = next(q for q in paths if q.slope == (1, 1))
    q = next(q for q in paths if q.slope == (1, -1))
    recs = universal_cover_intersections(model, p, q, 4)
    # |det| of the two slopes is 2: two torus edges are shared, and each
    # pair of lifts meets at most once.
    assert {r.edge for r in recs} == {2, 4}
    by_lift = {}
    for r in recs:
        by_lift.setdefault(r.lift, []).append(r)
    assert max(len(v) for v in by_lift.values()) == 1


def test_cover_intersections_unimodular_pair():
    model = hexagonal_model()
    paths = zigzag_paths(model)
    recs = universal_cover_intersections(model, paths[0], paths[1], 4)
    by_lift = {}
    for r in recs:
        by_lift.setdefault(r.lift, []).append(r)
    # |det| is 1: every pair of lifts meets exactly once.
    assert by_lift
    assert all(len(v) == 1 for v in by_lift.values())


def test_cover_intersections_self_pair_clean():
    model = hexagonal_model()
    paths = zigzag_paths(model)
    assert universal_cover_intersections(model, paths[0], paths[0], 4) == []


def test_cover_window_too_small():
    model = octagon_model()
    paths = zigzag_paths(model)
    with pytest.raises(WindowTooSmallError):
        universal_cover_intersections(model, paths[0], paths[1], 1)


def test_checkers_agree_on_valid_mutants():
    base = octagon_model()
    offsets = [(ox, oy) for ox in range(-1, 2) for oy in range(-1, 2)]
    inconsistent = 0
    for e in base.edges:
        for o in offsets:
            if o == e.offset:
                continue
            mutant = with_offsets(base, [(e.id, o)])
            if not validate(mutant).ok:
                continue
            verdict = check_consistency(mutant)
            ok, _ = consistency_via_cover(mutant)
            assert ok == verdict.consistent
            if not ok:
                inconsistent += 1
    assert inconsistent > 0
