"""JSON file formats, deterministic renderers, and the command line.

Three document kinds travel between commands: a model file with exact
rational node positions and offset edges, a polygon file listing integer
corners, and a group file listing integer generator matrices.  Emission
is byte-stable: keys appear in a fixed order, rationals are reduced with
positive denominators, and nothing time- or path-dependent is written.

The renderers draw one fundamental domain plus a quarter-unit margin of
translated copies, with black nodes filled and white nodes open.

synthesize --trace writes {"trace": [step, ...]}, each step one of:
  classify  the group's tag and order;
  direct    the catalog model, the sublattice basis and the marking M
            whose cover realizes the envelope polygon listed;
  chop      one symmetric cut: the corner, the legs (1 for a corner orbit
            chopped) and the polygon left;
  done      the final polygon.

Exit codes: 0 success, 1 malformed input, 2 group not finite, 3 polygon
not invariant, 4 verification failure, 5 no invariant matching, 6
matching cap exceeded, 7 synthesis could not finish.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .construct import (
    NotInvariantError,
    PlannerStuckError,
    Report,
    synthesize,
    verify_bundle,
)
from .dimer import (
    BLACK,
    WHITE,
    DimerModel,
    Edge,
    NoFixedFaceError,
    Node,
    NotSymmetricError,
    TwoEdgesSameDirectionError,
    edge_segment,
    find_symmetry,
)
from .lattice import (
    DegenerateError,
    Mat2,
    NotFiniteError,
    classify_group,
    convex_hull,
    generate_group,
    same_up_to_translation,
)
from .matchings import (
    DEFAULT_CAP,
    CapExceededError,
    NoInvariantMatchingError,
    OriginNotInPolygonError,
    enumerate_matchings,
    height_change,
    invariant_matching_at_origin,
)
from .quiver import (
    NotInvariantMatchingError as MovedMatchingError,
    quiver_of,
    twisted_action,
)
from .zigzag import (
    NonPrimitiveSlopeError,
    NotClosedError,
    zigzag_paths,
    zigzag_polygon,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_NOT_FINITE = 2
EXIT_NOT_INVARIANT = 3
EXIT_VERIFY_FAILED = 4
EXIT_NO_INVARIANT_MATCHING = 5
EXIT_CAP_EXCEEDED = 6
EXIT_STUCK = 7


class FormatError(Exception):
    """A document does not match its schema."""


# ---------------------------------------------------------------------------
# Documents


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FormatError(message)


def _as_int(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer")
    return value


def _rational_pair(value, what: str) -> Fraction:
    _require(
        isinstance(value, list) and len(value) == 2,
        f"{what} must be a [numerator, denominator] pair",
    )
    num = _as_int(value[0], f"{what} numerator")
    den = _as_int(value[1], f"{what} denominator")
    _require(den != 0, f"{what} denominator must be nonzero")
    return Fraction(num, den)


def model_to_doc(model: DimerModel, meta: Optional[dict] = None) -> dict:
    nodes = []
    for n in model.nodes:
        nodes.append(
            {
                "id": n.id,
                "color": n.color,
                "pos": [
                    [n.pos[0].numerator, n.pos[0].denominator],
                    [n.pos[1].numerator, n.pos[1].denominator],
                ],
            }
        )
    edges = []
    for e in model.edges:
        edges.append(
            {
                "id": e.id,
                "white": e.white,
                "black": e.black,
                "offset": [e.offset[0], e.offset[1]],
            }
        )
    return {"nodes": nodes, "edges": edges, "meta": dict(meta or {})}


def model_from_doc(doc) -> Tuple[DimerModel, dict]:
    _require(isinstance(doc, dict), "model document must be an object")
    _require(isinstance(doc.get("nodes"), list), "model document needs a node list")
    _require(isinstance(doc.get("edges"), list), "model document needs an edge list")
    nodes = []
    for item in doc["nodes"]:
        _require(isinstance(item, dict), "each node must be an object")
        color = item.get("color")
        _require(color in (BLACK, WHITE), "node color must be 'B' or 'W'")
        pos = item.get("pos")
        _require(isinstance(pos, list) and len(pos) == 2, "node pos must hold two rationals")
        nodes.append(
            Node(
                id=_as_int(item.get("id"), "node id"),
                color=color,
                pos=(
                    _rational_pair(pos[0], "node pos x"),
                    _rational_pair(pos[1], "node pos y"),
                ),
            )
        )
    edges = []
    for item in doc["edges"]:
        _require(isinstance(item, dict), "each edge must be an object")
        offset = item.get("offset")
        _require(
            isinstance(offset, list) and len(offset) == 2,
            "edge offset must be a pair of integers",
        )
        edges.append(
            Edge(
                id=_as_int(item.get("id"), "edge id"),
                white=_as_int(item.get("white"), "edge white endpoint"),
                black=_as_int(item.get("black"), "edge black endpoint"),
                offset=(
                    _as_int(offset[0], "edge offset x"),
                    _as_int(offset[1], "edge offset y"),
                ),
            )
        )
    meta = doc.get("meta", {})
    _require(isinstance(meta, dict), "model meta must be an object")
    try:
        model = DimerModel(nodes, edges)
    except ValueError as exc:
        raise FormatError(f"model is not well formed: {exc}") from exc
    return model, meta


def polygon_to_doc(corners: Sequence[Tuple[int, int]]) -> dict:
    return {"corners": [[x, y] for x, y in corners]}


def polygon_from_doc(doc) -> List[Tuple[int, int]]:
    _require(isinstance(doc, dict), "polygon document must be an object")
    corners = doc.get("corners")
    _require(isinstance(corners, list) and corners, "polygon document needs corners")
    out = []
    for item in corners:
        _require(
            isinstance(item, list) and len(item) == 2,
            "each corner must be an [x, y] pair",
        )
        out.append((_as_int(item[0], "corner x"), _as_int(item[1], "corner y")))
    return out


def group_to_doc(generators: Sequence[Mat2]) -> dict:
    return {"generators": [list(g.rows()) for g in generators]}


def group_from_doc(doc) -> List[Mat2]:
    _require(isinstance(doc, dict), "group document must be an object")
    gens = doc.get("generators")
    _require(isinstance(gens, list), "group document needs a generator list")
    out = []
    for item in gens:
        _require(
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in item),
            "each generator must be a 2x2 integer matrix",
        )
        rows = tuple(
            (
                _as_int(item[i][0], "matrix entry"),
                _as_int(item[i][1], "matrix entry"),
            )
            for i in (0, 1)
        )
        out.append(Mat2.from_rows(rows))
    return out


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Renderers

MARGIN = Fraction(1, 4)
_SCALE = 320


def _fmt(value: Fraction) -> str:
    return f"{float(value):.4f}"


def _torus_copies(model: DimerModel):
    """What both renderers draw: every edge segment, then every node's
    (position, color), in the nine unit translates of the fundamental
    square around it."""
    shifts = [(tx, ty) for tx in (-1, 0, 1) for ty in (-1, 0, 1)]
    segments = []
    for tx, ty in shifts:
        for e in model.edges:
            (wx, wy), (bx, by) = edge_segment(model, e)
            segments.append(((wx + tx, wy + ty), (bx + tx, by + ty)))
    dots = [((n.pos[0] + tx, n.pos[1] + ty), n.color) for tx, ty in shifts for n in model.nodes]
    return segments, dots


def render_svg(model: DimerModel, margin: Fraction = MARGIN) -> str:
    """SVG 1.1 drawing of the model on its torus.

    The fundamental square is dashed; translated copies fill a margin on
    every side so boundary-crossing edges stay legible.  Black nodes are
    filled, white nodes open.  Output depends only on the model."""
    size = _SCALE * (1 + 2 * margin)

    def px(x: Fraction, y: Fraction) -> Tuple[str, str]:
        return _fmt((x + margin) * _SCALE), _fmt((1 + margin - y) * _SCALE)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>',
    ]
    x0, y0 = px(Fraction(0), Fraction(1))
    side = _fmt(Fraction(_SCALE))
    lines.append(
        f'<rect x="{x0}" y="{y0}" width="{side}" height="{side}" '
        'fill="none" stroke="#888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    segments, dots = _torus_copies(model)
    for w, b in segments:
        ax, ay = px(*w)
        cx, cy = px(*b)
        lines.append(
            f'<line x1="{ax}" y1="{ay}" x2="{cx}" y2="{cy}" '
            'stroke="black" stroke-width="2"/>'
        )
    radius = _fmt(Fraction(_SCALE, 40))
    for p, color in dots:
        cx, cy = px(*p)
        if color == BLACK:
            style = 'fill="black" stroke="black"'
        else:
            style = 'fill="white" stroke="black"'
        lines.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius}" {style} '
            'stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_tikz(model: DimerModel, margin: Fraction = MARGIN) -> str:
    """TikZ fragment with the same content as the SVG rendering."""
    lines = [
        "\\begin{tikzpicture}[scale=3]",
        "  \\draw[dashed, gray] (0,0) rectangle (1,1);",
    ]
    segments, dots = _torus_copies(model)
    for (wx, wy), (bx, by) in segments:
        lines.append(
            f"  \\draw ({_fmt(wx)},{_fmt(wy)}) -- ({_fmt(bx)},{_fmt(by)});"
        )
    for (x, y), color in dots:
        style = "fill=black" if color == BLACK else "fill=white"
        lines.append(f"  \\draw[{style}] ({_fmt(x)},{_fmt(y)}) circle (0.06);")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _report_doc(report: Report) -> dict:
    def _poly(p):
        return None if p is None else [[x, y] for x, y in p]

    return {
        "valid_dimer": report.valid_dimer,
        "consistent": report.consistent,
        "zigzag_polygon": _poly(report.zigzag_polygon),
        "char_polygon": _poly(report.char_polygon),
        "char_matches_zigzag": report.char_matches_zigzag,
        "symmetric": report.symmetric,
        "polygon_match": report.polygon_match,
        "fixed_face": report.fixed_face,
        "notes": list(report.notes),
        "ok": report.ok,
    }


def _first_failure(report: Report) -> str:
    for name, flag in (
        ("valid_dimer", report.valid_dimer),
        ("consistent", report.consistent),
        ("char_matches_zigzag", report.char_matches_zigzag),
        ("symmetric", report.symmetric),
        ("polygon_match", report.polygon_match),
    ):
        if flag is False:
            return name
    return "ok"


def cmd_classify_group(args) -> int:
    gens = group_from_doc(_load_json(args.infile))
    try:
        elements = generate_group(gens)
    except NotFiniteError as exc:
        print(f"group is not finite: {exc}", file=sys.stderr)
        return EXIT_NOT_FINITE
    except ValueError as exc:
        print(f"bad generators: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    cls = classify_group(elements)
    doc = {
        "tag": cls.tag,
        "order": cls.order,
        "conjugator": list(cls.conjugator.rows()),
    }
    sys.stdout.write(emit_json(doc))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    corners = polygon_from_doc(_load_json(args.polygon))
    gens = group_from_doc(_load_json(args.group))
    try:
        generate_group(gens)
    except NotFiniteError as exc:
        print(f"group is not finite: {exc}", file=sys.stderr)
        return EXIT_NOT_FINITE
    except ValueError as exc:
        print(f"bad generators: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        sd = synthesize(corners, gens)
    except NotInvariantError as exc:
        print(f"polygon is not invariant: {exc}", file=sys.stderr)
        return EXIT_NOT_INVARIANT
    except PlannerStuckError as exc:
        print(f"synthesis could not finish: {exc}", file=sys.stderr)
        steps = getattr(exc, "trace", None)
        if steps:
            print(f"failed after step: {json.dumps(steps[-1])}", file=sys.stderr)
        return EXIT_STUCK
    report = verify_bundle(sd.model, action=sd.action, polygon=sd.polygon)
    if not report.ok:
        print(
            f"synthesized model failed verification: {_first_failure(report)}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    meta = {
        "tag": sd.classification.tag,
        "generators": [list(g.rows()) for g in gens],
        "polygon": [[x, y] for x, y in sd.polygon],
        "fixed_face": sd.fixed_face,
    }
    _write_text(args.out, emit_json(model_to_doc(sd.model, meta)))
    if args.trace:
        _write_text(args.trace, emit_json({"trace": sd.trace}))
    if args.svg:
        _write_text(args.svg, render_svg(sd.model))
    if args.tikz:
        _write_text(args.tikz, render_tikz(sd.model))
    summary = {
        "out": args.out,
        "tag": sd.classification.tag,
        "nodes": len(sd.model.nodes),
        "edges": len(sd.model.edges),
        "fixed_face": sd.fixed_face,
        "verified": True,
    }
    sys.stdout.write(emit_json(summary))
    return EXIT_OK


def cmd_verify(args) -> int:
    model, _meta = model_from_doc(_load_json(args.model))
    action = None
    if args.group:
        gens = group_from_doc(_load_json(args.group))
        try:
            generate_group(gens)
        except NotFiniteError as exc:
            print(f"group is not finite: {exc}", file=sys.stderr)
            return EXIT_NOT_FINITE
        action = gens
    polygon = polygon_from_doc(_load_json(args.polygon)) if args.polygon else None
    report = verify_bundle(model, action=action, polygon=polygon)
    sys.stdout.write(emit_json(_report_doc(report)))
    if not report.ok:
        print(f"first failing check: {_first_failure(report)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _quiver_doc(model: DimerModel) -> dict:
    q = quiver_of(model)
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {"id": a.id, "source": a.source, "target": a.target} for a in q.arrows
        ],
        "relations": [
            {"arrow": r.arrow, "plus": list(r.plus), "minus": list(r.minus)}
            for r in q.relations
        ],
    }


def cmd_quiver(args) -> int:
    model, meta = model_from_doc(_load_json(args.model))
    try:
        doc = _quiver_doc(model)
    except (TwoEdgesSameDirectionError, ValueError) as exc:
        print(f"model has no dual quiver: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.twist:
        raw = meta.get("generators")
        if raw is None:
            print(
                "twist requires group metadata in the model file",
                file=sys.stderr,
            )
            return EXIT_MALFORMED
        gens = group_from_doc({"generators": raw})
        try:
            elements = generate_group(gens)
        except NotFiniteError as exc:
            print(f"group is not finite: {exc}", file=sys.stderr)
            return EXIT_NOT_FINITE
        try:
            action = find_symmetry(model, elements, require_fixed_face=True)
        except NoFixedFaceError:
            action = find_symmetry(model, elements)
        except NotSymmetricError as exc:
            print(f"group metadata does not act on the model: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        try:
            d0 = invariant_matching_at_origin(model, action)
            signed = twisted_action(model, action, d0)
        except (NoInvariantMatchingError, OriginNotInPolygonError, MovedMatchingError) as exc:
            print(f"no invariant matching: {exc}", file=sys.stderr)
            return EXIT_NO_INVARIANT_MATCHING
        doc["twist"] = {
            "matching": list(signed.matching),
            "elements": [
                {
                    "element": list(h.rows()),
                    "det": h.det(),
                    "arrows": [
                        {
                            "id": aid,
                            "image": signed.arrow_perm[h][aid],
                            "sign": signed.sign[h][aid],
                        }
                        for aid in sorted(signed.arrow_perm[h])
                    ],
                }
                for h in signed.elements
            ],
            "certificate_ok": signed.ok,
        }
    sys.stdout.write(emit_json(doc))
    return EXIT_OK


def cmd_matchings(args) -> int:
    model, _meta = model_from_doc(_load_json(args.model))
    try:
        ms = enumerate_matchings(model, cap=args.cap)
    except CapExceededError as exc:
        print(
            f"matching cap exceeded after {exc.count} matchings",
            file=sys.stderr,
        )
        return EXIT_CAP_EXCEEDED
    if not ms:
        print("model has no perfect matching", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    reference = ms[0]
    heights = [height_change(model, m, reference) for m in ms]
    try:
        char = convex_hull(heights)
        zz = zigzag_polygon([p.slope for p in zigzag_paths(model)])
    except (NotClosedError, NonPrimitiveSlopeError, DegenerateError) as exc:
        print(f"polygon unavailable: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    doc = {
        "count": len(ms),
        "reference": list(reference),
        "matchings": [
            {"edges": list(m), "height": [h[0], h[1]]}
            for m, h in zip(ms, heights)
        ],
        "polygon_from_matchings": [[x, y] for x, y in char],
        "polygon_from_zigzags": [[x, y] for x, y in zz],
        "polygons_match": same_up_to_translation(char, zz),
    }
    sys.stdout.write(emit_json(doc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdimer",
        description="Construct, verify, and analyze symmetric dimer models on the torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-group", help="identify a finite matrix group")
    p.add_argument("--in", dest="infile", required=True, help="group JSON file")
    p.set_defaults(func=cmd_classify_group)

    p = sub.add_parser("synthesize", help="build a symmetric model for a polygon")
    p.add_argument("--polygon", required=True, help="polygon JSON file")
    p.add_argument("--group", required=True, help="group JSON file")
    p.add_argument("--out", required=True, help="output model JSON file")
    p.add_argument("--trace", help="also write the construction trace here")
    p.add_argument("--svg", help="also write an SVG rendering here")
    p.add_argument("--tikz", help="also write a TikZ fragment here")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="re-check a model from scratch")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--group", help="group JSON file to check the action")
    p.add_argument("--polygon", help="polygon JSON file to compare against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quiver", help="dual quiver with relations")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument(
        "--twist",
        action="store_true",
        help="include the matching-twisted signed action (needs group metadata)",
    )
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("matchings", help="perfect matchings and height changes")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help="bail out after this many matchings",
    )
    p.set_defaults(func=cmd_matchings)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
