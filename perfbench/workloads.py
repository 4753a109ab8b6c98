"""The three benchmark workloads and their known-answer checks.

Every expected answer is computed here, from the benchmark's own copies
of the group generators and catalog polygons, so that a change to the
library cannot also change what counts as correct.  Inputs depend only
on the seed; symdimer is reached through the ``lib`` namespace that
``run.py`` builds after each fresh import.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

MODELS_DIR = Path(__file__).resolve().parent / "models"

# Canonical generators of the twelve finite subgroups of GL(2,Z), as
# (a, b, c, d) for the matrix [[a, b], [c, d]].
GENERATORS = {
    "TRIVIAL": (),
    "C2": ((-1, 0, 0, -1),),
    "C3": ((0, -1, 1, -1),),
    "C4": ((0, -1, 1, 0),),
    "C6": ((1, -1, 1, 0),),
    "R1": ((1, 0, 0, -1),),
    "R2": ((0, 1, 1, 0),),
    "D4_1": ((1, 0, 0, -1), (-1, 0, 0, -1)),
    "D4_2": ((0, 1, 1, 0), (-1, 0, 0, -1)),
    "D6_1": ((0, -1, 1, -1), (1, 0, 1, -1)),
    "D6_2": ((0, -1, 1, -1), (0, 1, 1, 0)),
    "D8": ((0, -1, 1, 0), (1, 0, 0, -1)),
    "D12": ((1, -1, 1, 0), (0, 1, 1, 0)),
}

# Characteristic polygons of the four catalog models.
BASE_POLYGONS = {
    "hexagonal": ((-1, 0), (0, 0), (0, 1)),
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "octagon": ((-1, 0), (0, -1), (1, 0), (0, 1)),
    "dodecagon": ((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)),
}

# verify_covers draws covers by sublattice bases in Hermite normal form,
# S = [[a, b], [0, d]] with 0 <= b < a (the columns of S span the deck
# lattice), in cells of (catalog, a, d, draws): the seed draws `draws`
# values of b.  Node count is a * d times the catalog's.  The cells are
# stratified by node count and chosen so that the cost of a cell hardly
# depends on b, as measured when the benchmark was written, so every
# draw holds the same mix: with the two known-bad cases the median
# operation falls inside the 0.1 s block and op_tail_s (p76 of 43) among
# the cheap covers at the cap.
COVER_CELLS = (
    # 4-24 nodes, decided below the 20 000-matching cap in under 0.03 s
    ("hexagonal", 2, 3, 2),
    ("square", 2, 3, 2),
    ("hexagonal", 3, 3, 2),
    ("square", 3, 3, 2),
    ("hexagonal", 2, 5, 2),
    ("square", 2, 5, 2),
    ("hexagonal", 3, 4, 2),
    ("octagon", 1, 2, 1),
    ("dodecagon", 1, 2, 1),
    # 24-32 nodes, decided below the cap in 0.09-0.12 s: holds the median
    ("octagon", 2, 2, 2),
    ("hexagonal", 4, 4, 3),
    ("square", 3, 4, 3),
    ("hexagonal", 2, 8, 2),
    ("octagon", 1, 4, 1),
    ("square", 2, 6, 2),
    # 30-36 nodes: enumeration reaches the cap in 0.16-0.22 s and the
    # char check is skipped; holds op_tail_s
    ("hexagonal", 1, 15, 1),
    ("hexagonal", 1, 16, 1),
    ("hexagonal", 1, 17, 1),
    ("hexagonal", 1, 18, 1),
    ("square", 1, 15, 1),
    ("square", 1, 16, 1),
    ("square", 1, 17, 1),
    # 32 nodes: the cap is reached in 0.6 s and 1.5 s
    ("square", 2, 8, 1),
    ("square", 4, 4, 1),
    # 36 and 40 nodes, decided below the cap in about 0.55 s
    ("dodecagon", 1, 3, 1),
    ("hexagonal", 4, 5, 1),
    # 48 nodes, dead-end enumeration for far longer than the limit
    ("dodecagon", 2, 2, 1),
)

# Small covers checked against a wrong polygon and against a group that
# does not act on them, so the rejection path is timed too: (catalog, a, d)
# and (catalog, a, d, group tag).
WRONG_POLYGON_CELL = ("hexagonal", 2, 1)
FOREIGN_GROUP_CELL = ("hexagonal", 2, 2, "C4")

CHECK_ORDER = ("valid_dimer", "consistent", "char_matches_zigzag", "symmetric", "polygon_match")


class CliFailed(Exception):
    """The command returned a nonzero exit code instead of output."""


@dataclass
class Verdict:
    """What a known-answer check found in one operation's output."""

    problems: List[str] = field(default_factory=list)
    char_checked: bool = True


@dataclass
class Case:
    id: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    runs: int = 1  # back to back in one operation


# ---------------------------------------------------------------------------
# Exact 2-D helpers, independent of the library


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_apply(m, p):
    return (m[0] * p[0] + m[1] * p[1], m[2] * p[0] + m[3] * p[1])


def closure(gens):
    elems = {(1, 0, 0, 1)}
    frontier = list(elems)
    while frontier:
        new = [mat_mul(e, g) for e in frontier for g in gens]
        frontier = [m for m in set(new) if m not in elems]
        elems.update(frontier)
    return sorted(elems)


def hull(points):
    """Corners of the convex hull, counterclockwise; None when flat."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    corners = half(pts)[:-1] + half(reversed(pts))[:-1]
    return tuple(corners) if len(corners) >= 3 else None


def shape(poly):
    """Corner set translated so the smallest corner is the origin."""
    m = min(poly)
    return frozenset((x - m[0], y - m[1]) for x, y in poly)


def first_failure(report) -> str:
    for name in CHECK_ORDER:
        if getattr(report, name) is False:
            return name
    return "ok"


def _expect(cond, problems, message):
    if not cond:
        problems.append(message)


# ---------------------------------------------------------------------------
# synth_sweep


def sweep_polygons():
    """(tag, polygon) for every invariant polygon that is the convex hull
    of the G-orbit of at most two points of [-1,1]^2: 54 cases."""
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    out = []
    for tag, gens in GENERATORS.items():
        group = closure(gens)
        seen = set()
        for k in (1, 2):
            for pts in itertools.combinations(grid, k):
                poly = hull(mat_apply(g, p) for g in group for p in pts)
                if poly is not None and poly not in seen:
                    seen.add(poly)
                    out.append((tag, poly))
    return out


def synth_sweep(lib, rng: random.Random, smoke: bool) -> List[Case]:
    cases = sweep_polygons()
    if smoke:
        # one quick success and one quick PlannerStuckError
        picks = {("C4", shape(((-1, 0), (0, -1), (1, 0), (0, 1)))), ("R2", shape(((-1, 0), (0, -1), (0, 0))))}
        cases = [(tag, poly) for tag, poly in cases if (tag, shape(poly)) in picks and min(poly) == (-1, 0)]
    rng.shuffle(cases)
    out = []
    for tag, poly in cases:
        gens = [lib.lattice.Mat2(*g) for g in GENERATORS[tag]]

        def call(poly=poly, gens=gens):
            sym = lib.construct.synthesize(poly, gens)
            return sym, lib.construct.verify_bundle(sym.model, sym.action, sym.polygon)

        def check(result, poly=poly):
            _sym, report = result
            v = Verdict(char_checked=report.char_matches_zigzag is not None)
            _expect(report.ok, v.problems, f"verify failed: {first_failure(report)}")
            _expect(report.polygon_match is True, v.problems, "polygon_match is not true")
            _expect(report.fixed_face is not None, v.problems, "no fixed face")
            _expect(
                report.zigzag_polygon is not None and shape(report.zigzag_polygon) == shape(poly),
                v.problems,
                f"zigzag polygon {report.zigzag_polygon} is not {poly}",
            )
            return v

        out.append(Case(f"{tag}:{list(poly)}", call, check))
    return out


# ---------------------------------------------------------------------------
# verify_covers


def _cover_check(expected, nodes, want_first_failure="ok"):
    def check(report):
        v = Verdict(char_checked=report.char_matches_zigzag is not None)
        got = first_failure(report)
        _expect(got == want_first_failure, v.problems, f"first failing check {got}, expected {want_first_failure}")
        _expect(report.valid_dimer and report.consistent, v.problems, "cover is not a valid consistent model")
        _expect(
            report.zigzag_polygon is not None and shape(report.zigzag_polygon) == expected,
            v.problems,
            f"zigzag polygon {report.zigzag_polygon} is not S^T * base",
        )
        _expect(
            report.char_polygon is None or shape(report.char_polygon) == expected,
            v.problems,
            f"char polygon {report.char_polygon} is not S^T * base",
        )
        _expect(nodes[0] == nodes[1], v.problems, f"{nodes[0]} nodes, expected {nodes[1]}")
        return v

    return check


def verify_covers(lib, rng: random.Random, smoke: bool) -> List[Case]:
    bases = {name: make() for name, make in lib.construct.CATALOG.items()}

    def make_cover(name, a, d, b):
        s = lib.lattice.Mat2(a, b, 0, d)
        model = lib.surgery.cover(bases[name], s)
        # the polygon of a cover is S^T applied to the catalog polygon
        expected = shape(hull(mat_apply((a, 0, b, d), p) for p in BASE_POLYGONS[name]))
        nodes = (len(model.nodes), a * d * len(bases[name].nodes))
        return f"{name}:[[{a},{b}],[0,{d}]]", model, expected, nodes

    cells = COVER_CELLS[:1] if smoke else COVER_CELLS
    out = []
    for name, a, d, draws in cells:
        for b in sorted(rng.sample(range(a), draws)):
            cid, model, expected, nodes = make_cover(name, a, d, b)
            call = lambda model=model: lib.construct.verify_bundle(model)
            out.append(Case(cid, call, _cover_check(expected, nodes), runs=3))

    name, a, d = WRONG_POLYGON_CELL
    cid, model, expected, nodes = make_cover(name, a, d, rng.randrange(a))
    wrong = BASE_POLYGONS[name]
    call = lambda model=model: lib.construct.verify_bundle(model, polygon=wrong)
    out.append(Case(cid + ":wrong-polygon", call, _cover_check(expected, nodes, "polygon_match"), runs=3))

    name, a, d, tag = FOREIGN_GROUP_CELL
    cid, model, expected, nodes = make_cover(name, a, d, rng.randrange(a))
    gens = [lib.lattice.Mat2(*g) for g in GENERATORS[tag]]
    call = lambda model=model: lib.construct.verify_bundle(model, action=gens)
    out.append(Case(f"{cid}:{tag}-does-not-act", call, _cover_check(expected, nodes, "symmetric"), runs=3))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# twist_models


def _twist_check(doc):
    white = {e["id"]: e["white"] for e in doc["edges"]}
    black = {e["id"]: e["black"] for e in doc["edges"]}
    n_nodes, n_edges = len(doc["nodes"]), len(doc["edges"])

    def check(text):
        v = Verdict()
        out = json.loads(text)
        twist = out["twist"]
        matching = twist["matching"]
        _expect(twist["certificate_ok"] is True, v.problems, "certificate_ok is not true")
        ends = [white[e] for e in matching] + [black[e] for e in matching]
        _expect(
            len(set(matching)) == len(matching) and len(ends) == n_nodes and len(set(ends)) == n_nodes,
            v.problems,
            "matching is not a perfect matching",
        )
        for el in twist["elements"]:
            image = {a["id"]: a["image"] for a in el["arrows"]}
            _expect(
                {image[e] for e in matching} == set(matching),
                v.problems,
                f"element {el['element']} moves the matching",
            )
        # one arrow per edge, one vertex per face: F = E - V on the torus
        _expect(len(out["arrows"]) == n_edges, v.problems, "arrow count is not the edge count")
        _expect(len(out["vertices"]) == n_edges - n_nodes, v.problems, "vertex count is not E - V")
        return v

    return check


def twist_models(lib, rng: random.Random, smoke: bool) -> List[Case]:
    paths = sorted(MODELS_DIR.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no model documents in {MODELS_DIR}")
    if smoke:
        paths = paths[:2]
    rng.shuffle(paths)
    out = []
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))

        def call(path=path):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = lib.cli_io.main(["quiver", "--model", str(path), "--twist"])
            if code != 0:
                raise CliFailed(f"exit code {code}: {stderr.getvalue().strip()}")
            return stdout.getvalue()

        # The four models of 30 nodes and more twist in 0.2-1 s; the others
        # in a few ms, which this host times to within about a fifth per
        # run, so they get three times the runs.
        runs = 5 if len(doc["nodes"]) >= 30 else 15
        out.append(Case(path.stem, call, _twist_check(doc), runs=runs))
    return out


@dataclass(frozen=True)
class Workload:
    """A workload, its time limit per run in CPU seconds, and the CPU
    seconds one pass over its cases takes on the reference host (see
    meter.py), which sets the number of passes in a run of a given length
    without timing anything."""

    name: str
    build: Callable
    time_limit_s: float
    pass_s: float

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth_sweep", synth_sweep, 30.0, pass_s=45.0),
        Workload("verify_covers", verify_covers, 3.0, pass_s=21.0),
        Workload("twist_models", twist_models, 3.0, pass_s=21.0),
    )
}
