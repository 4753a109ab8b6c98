"""End-to-end tests of the command line and the JSON file formats."""

import json
from fractions import Fraction

import pytest

from symdimer.cli_io import (
    emit_json,
    main,
    model_from_doc,
    model_to_doc,
    render_svg,
    render_tikz,
)
from symdimer import cli_io, matchings
from symdimer.construct import CATALOG, hexagonal_model, verify_bundle
from symdimer.dimer import DimerModel, Edge, Node
from symdimer.lattice import Mat2, canonical_group
from symdimer.surgery import cover


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def group_file(tmp_path, name, generators):
    return write_json(tmp_path / name, {"generators": generators})


def polygon_file(tmp_path, name, corners):
    return write_json(tmp_path / name, {"corners": corners})


def model_file(tmp_path, name, model, meta=None):
    path = tmp_path / name
    path.write_text(emit_json(model_to_doc(model, meta)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_group_names_a_rotation(tmp_path, capsys):
    path = group_file(tmp_path, "g.json", [[[0, -1], [1, 0]]])
    code, out, _ = run(capsys, ["classify-group", "--in", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "C4"
    assert doc["order"] == 4


def test_classify_group_identity_only(tmp_path, capsys):
    path = group_file(tmp_path, "g.json", [[[1, 0], [0, 1]]])
    code, out, _ = run(capsys, ["classify-group", "--in", path])
    assert code == 0
    assert json.loads(out)["tag"] == "TRIVIAL"


def test_classify_group_rejects_infinite_order(tmp_path, capsys):
    path = group_file(tmp_path, "g.json", [[[1, 1], [0, 1]]])
    code, _, err = run(capsys, ["classify-group", "--in", path])
    assert code == 2
    assert "not finite" in err


@pytest.mark.parametrize("command", ["classify-group", "synthesize", "verify", "quiver-twist"])
def test_commands_refuse_a_non_unimodular_generator(tmp_path, capsys, command):
    gens = [[[2, 0], [0, 1]]]
    group = group_file(tmp_path, "g.json", gens)
    model = model_file(tmp_path, "m.json", hexagonal_model(), {"generators": gens})
    argv = {
        "classify-group": ["classify-group", "--in", group],
        "synthesize": [
            "synthesize", "--group", group, "--out", str(tmp_path / "out.json"),
            "--polygon", polygon_file(tmp_path, "p.json", [[0, 0], [1, 0], [0, 1]]),
        ],
        "verify": ["verify", "--model", model, "--group", group],
        "quiver-twist": ["quiver", "--model", model, "--twist"],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "bad generators" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synthesize", "verify"])
def test_collinear_polygon_corners_exit_one(tmp_path, capsys, command):
    polygon = polygon_file(tmp_path, "p.json", [[0, 0], [1, 0], [2, 0]])
    group = group_file(tmp_path, "g.json", [[[1, 0], [0, 1]]])
    argv = {
        "synthesize": [
            "synthesize", "--polygon", polygon, "--group", group,
            "--out", str(tmp_path / "out.json"),
        ],
        "verify": [
            "verify", "--model", model_file(tmp_path, "m.json", hexagonal_model()),
            "--polygon", polygon,
        ],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "span no polygon" in err
    assert "Traceback" not in err


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, ["classify-group", "--in", str(path)])
    assert code == 1
    assert "not valid JSON" in err


def test_wrong_schema_exits_one(tmp_path, capsys):
    path = write_json(tmp_path / "g.json", {"generators": [[[1, 0]]]})
    code, _, err = run(capsys, ["classify-group", "--in", path])
    assert code == 1
    assert "2x2" in err


def test_synthesize_writes_a_verifiable_model(tmp_path, capsys):
    group = group_file(tmp_path, "g.json", [[[-1, 0], [0, -1]]])
    polygon = polygon_file(tmp_path, "d.json", [[1, 1], [-1, 1], [-1, -1], [1, -1]])
    out = tmp_path / "model.json"
    code, summary, _ = run(
        capsys,
        ["synthesize", "--polygon", polygon, "--group", group, "--out", str(out)],
    )
    assert code == 0
    assert json.loads(summary)["verified"] is True
    code, report, _ = run(
        capsys,
        ["verify", "--model", str(out), "--group", group, "--polygon", polygon],
    )
    assert code == 0
    doc = json.loads(report)
    assert doc["ok"] is True
    assert doc["symmetric"] is True
    assert doc["polygon_match"] is True


def test_synthesize_rejects_a_non_invariant_polygon(tmp_path, capsys):
    group = group_file(tmp_path, "g.json", [[[0, -1], [1, 0]]])
    polygon = polygon_file(tmp_path, "d.json", [[0, 0], [1, 0], [0, 1]])
    out = tmp_path / "model.json"
    code, _, err = run(
        capsys,
        ["synthesize", "--polygon", polygon, "--group", group, "--out", str(out)],
    )
    assert code == 3
    assert "not invariant" in err
    assert not out.exists()


def test_synthesize_matches_the_sixfold_catalog_model(tmp_path, capsys):
    group = group_file(
        tmp_path, "g.json", [[[1, -1], [1, 0]], [[0, 1], [1, 0]]]
    )
    polygon = polygon_file(
        tmp_path,
        "d.json",
        [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    )
    out = tmp_path / "model.json"
    code, summary, _ = run(
        capsys,
        ["synthesize", "--polygon", polygon, "--group", group, "--out", str(out)],
    )
    assert code == 0
    doc = json.loads(summary)
    catalog = CATALOG["dodecagon"]()
    assert doc["tag"] == "D12"
    assert doc["nodes"] == len(catalog.nodes)
    assert doc["edges"] == len(catalog.edges)


def test_synthesize_side_outputs_are_deterministic(tmp_path, capsys):
    group = group_file(tmp_path, "g.json", [[[-1, 0], [0, -1]]])
    polygon = polygon_file(tmp_path, "d.json", [[1, 1], [-1, 1], [-1, -1], [1, -1]])
    results = []
    for tag in ("a", "b"):
        out = tmp_path / f"model_{tag}.json"
        trace = tmp_path / f"trace_{tag}.json"
        svg = tmp_path / f"pic_{tag}.svg"
        tikz = tmp_path / f"pic_{tag}.tex"
        code, _, _ = run(
            capsys,
            [
                "synthesize",
                "--polygon", polygon,
                "--group", group,
                "--out", str(out),
                "--trace", str(trace),
                "--svg", str(svg),
                "--tikz", str(tikz),
            ],
        )
        assert code == 0
        results.append(
            (out.read_text(), trace.read_text(), svg.read_text(), tikz.read_text())
        )
    assert results[0] == results[1]
    svg_text = results[0][2]
    assert svg_text.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert 'fill="black"' in svg_text
    assert 'fill="white"' in svg_text
    assert "\\begin{tikzpicture}" in results[0][3]
    trace_doc = json.loads(results[0][1])
    assert trace_doc["trace"][0]["step"] == "classify"


def test_verify_accepts_a_catalog_model_alone(tmp_path, capsys):
    path = model_file(tmp_path, "model.json", CATALOG["octagon"]())
    code, out, _ = run(capsys, ["verify", "--model", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid_dimer"] is True
    assert doc["consistent"] is True
    assert doc["char_matches_zigzag"] is True
    assert doc["symmetric"] is None


def test_verify_checks_the_polygon_past_twenty_thousand_matchings(tmp_path, capsys):
    model = cover(CATALOG["square"](), Mat2(4, 0, 0, 4))
    path = model_file(tmp_path, "model.json", model)
    code, out, _ = run(capsys, ["verify", "--model", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["char_polygon"] is not None
    assert doc["char_matches_zigzag"] is True
    assert doc["notes"] == []


def test_verify_reports_the_first_failing_check(tmp_path, capsys):
    model = CATALOG["octagon"]()
    doc = model_to_doc(model)
    doc["edges"][0]["offset"] = [doc["edges"][0]["offset"][0] + 1, doc["edges"][0]["offset"][1]]
    path = write_json(tmp_path / "broken.json", doc)
    code, out, err = run(capsys, ["verify", "--model", path])
    assert code == 4
    assert json.loads(out)["ok"] is False
    assert "valid_dimer" in err


def test_verify_survives_a_dropped_edge(tmp_path, capsys):
    model = CATALOG["octagon"]()
    doc = model_to_doc(model)
    doc["edges"] = doc["edges"][:-1]
    path = write_json(tmp_path / "broken.json", doc)
    code, out, _ = run(capsys, ["verify", "--model", path])
    doc = json.loads(out)
    assert code in (0, 4)
    assert isinstance(doc["notes"], list)


def test_model_documents_round_trip(tmp_path):
    for name in CATALOG:
        model = CATALOG[name]()
        text = emit_json(model_to_doc(model, {"name": name}))
        parsed, meta = model_from_doc(json.loads(text))
        assert parsed == model
        assert meta == {"name": name}
        assert emit_json(model_to_doc(parsed, meta)) == text


def test_model_documents_reduce_rationals():
    doc = model_to_doc(CATALOG["hexagonal"]())
    doc["nodes"][0]["pos"] = [[2, 4], [0, -1]]
    model, _ = model_from_doc(doc)
    rebuilt = model_to_doc(model)
    assert rebuilt["nodes"][0]["pos"] == [[1, 2], [0, 1]]


def test_quiver_counts_for_the_small_models(tmp_path, capsys):
    hex_path = model_file(tmp_path, "hex.json", CATALOG["hexagonal"]())
    code, out, _ = run(capsys, ["quiver", "--model", hex_path])
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["vertices"]), len(doc["arrows"]), len(doc["relations"])) == (1, 3, 3)
    sq_path = model_file(tmp_path, "sq.json", CATALOG["square"]())
    code, out, _ = run(capsys, ["quiver", "--model", sq_path])
    assert code == 0
    doc = json.loads(out)
    assert (len(doc["vertices"]), len(doc["arrows"]), len(doc["relations"])) == (2, 4, 4)


def test_quiver_twist_with_the_trivial_group_keeps_all_signs(tmp_path, capsys):
    meta = {"generators": [[[1, 0], [0, 1]]]}
    path = model_file(tmp_path, "hex.json", CATALOG["hexagonal"](), meta)
    code, out, _ = run(capsys, ["quiver", "--model", path, "--twist"])
    assert code == 0
    doc = json.loads(out)
    assert doc["twist"]["certificate_ok"] is True
    for element in doc["twist"]["elements"]:
        assert all(a["sign"] == 1 for a in element["arrows"])


def test_quiver_twist_flips_signs_under_a_reflection(tmp_path, capsys):
    meta = {"generators": [[[1, 0], [0, -1]]]}
    path = model_file(tmp_path, "oct.json", CATALOG["octagon"](), meta)
    code, out, _ = run(capsys, ["quiver", "--model", path, "--twist"])
    assert code == 0
    doc = json.loads(out)
    assert doc["twist"]["certificate_ok"] is True
    matched = set(doc["twist"]["matching"])
    refl = next(e for e in doc["twist"]["elements"] if e["det"] == -1)
    for arrow in refl["arrows"]:
        assert arrow["sign"] == (-1 if arrow["id"] in matched else 1)


def test_quiver_twist_requires_group_metadata(tmp_path, capsys):
    path = model_file(tmp_path, "hex.json", CATALOG["hexagonal"]())
    code, _, err = run(capsys, ["quiver", "--model", path, "--twist"])
    assert code == 1
    assert "metadata" in err


def test_a_glide_reflection_is_no_group_action(tmp_path, capsys):
    """On the 2x2 cover of the square model the reflection (x, y) ->
    (x, -y) maps the model to itself only with a half-period shift along
    its mirror, and such a map squares to a translation, not to the
    identity."""
    model = cover(CATALOG["square"](), Mat2(2, 0, 0, 2))
    gens = [list(g.rows()) for g in canonical_group("R1") if g != Mat2.identity()]
    assert verify_bundle(model, action=canonical_group("R1")).symmetric is False
    path = model_file(tmp_path, "glide.json", model, {"generators": gens})
    code, out, err = run(capsys, ["quiver", "--model", path, "--twist"])
    assert code == 1
    assert out == ""
    assert "does not act" in err


def without_edge_0(model):
    return DimerModel(list(model.nodes), [e for e in model.edges if e.id != 0])


def one_white_two_blacks():
    """Unbalanced colours, so no perfect matching at all."""
    q = Fraction(1, 4)
    nodes = [Node(0, "W", (q, q)), Node(1, "B", (3 * q, q)), Node(2, "B", (2 * q, 3 * q))]
    edges = [Edge(0, 0, 1, (0, 0)), Edge(1, 0, 2, (0, 0)), Edge(2, 0, 1, (-1, 0))]
    return DimerModel(nodes, edges)


@pytest.mark.parametrize(
    "model",
    [without_edge_0(hexagonal_model()), one_white_two_blacks()],
    ids=["heights_on_a_segment", "no_perfect_matching"],
)
def test_quiver_twist_on_a_degenerate_polygon_exits_five(tmp_path, capsys, model):
    path = model_file(tmp_path, "bad.json", model, {"generators": []})
    code, _, err = run(capsys, ["quiver", "--model", path, "--twist"])
    assert code == 5
    assert "no invariant matching" in err


@pytest.mark.parametrize("name", ["hexagonal", "octagon"])
def test_matchings_on_a_degenerate_polygon_exits_four(tmp_path, capsys, name):
    # Without edge 0 the hexagonal model's heights span no polygon and the
    # octagon model has a zigzag path of non-primitive slope.
    path = model_file(tmp_path, "bad.json", without_edge_0(CATALOG[name]()))
    code, out, err = run(capsys, ["matchings", "--model", path])
    assert code == 4
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_quiver_on_edges_leaving_at_one_angle_exits_one(tmp_path, capsys):
    model = hexagonal_model()
    bad = DimerModel(list(model.nodes), list(model.edges) + [Edge(3, 0, 1, (-1, -1))])
    path = model_file(tmp_path, "bad.json", bad)
    code, out, err = run(capsys, ["quiver", "--model", path])
    assert code == 1
    assert out == ""
    assert "same angle" in err


@pytest.mark.parametrize(
    "argv,enumerations",
    [(["quiver", "--twist"], 0), (["matchings"], 1)],
    ids=["quiver-twist", "matchings"],
)
def test_only_the_matchings_command_enumerates(tmp_path, capsys, monkeypatch, argv, enumerations):
    calls = []
    real = matchings.enumerate_matchings

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(matchings, "enumerate_matchings", counted)
    monkeypatch.setattr(cli_io, "enumerate_matchings", counted)
    meta = {"generators": [list(g.rows()) for g in canonical_group("D8")]}
    path = model_file(tmp_path, "oct.json", CATALOG["octagon"](), meta)
    code, _, _ = run(capsys, [argv[0], "--model", path] + argv[1:])
    assert code == 0
    assert len(calls) == enumerations


def test_matchings_of_the_unit_hexagonal_model(tmp_path, capsys):
    path = model_file(tmp_path, "hex.json", CATALOG["hexagonal"]())
    code, out, _ = run(capsys, ["matchings", "--model", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert len(doc["polygon_from_matchings"]) == 3
    assert doc["polygons_match"] is True
    assert all(len(m["edges"]) == 1 for m in doc["matchings"])


def test_matchings_cap_exceeded(tmp_path, capsys):
    path = model_file(tmp_path, "sq.json", CATALOG["square"]())
    code, _, err = run(capsys, ["matchings", "--model", path, "--cap", "1"])
    assert code == 6
    assert "cap exceeded" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_matchings_refuses_a_cap_below_one(tmp_path, capsys, cap):
    path = model_file(tmp_path, "sq.json", CATALOG["square"]())
    code, out, err = run(capsys, ["matchings", "--model", path, "--cap", cap])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_matchings_output_is_deterministic(tmp_path, capsys):
    path = model_file(tmp_path, "oct.json", CATALOG["octagon"]())
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["matchings", "--model", path])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_renderers_cover_the_margin_with_translates():
    model = CATALOG["square"]()
    svg = render_svg(model)
    assert svg.count("<circle") == 9 * len(model.nodes)
    assert svg.count("<line") == 9 * len(model.edges)
    tikz = render_tikz(model)
    assert tikz.count("circle (0.06)") == 9 * len(model.nodes)
