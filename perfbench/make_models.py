"""Regenerate the model documents of the twist_models workload.

Run from the repository root:  python3 perfbench/make_models.py

Every synth_sweep polygon that synthesizes is written as a model document
with its group generators in the metadata, as `symdimer synthesize`
writes it.  The documents are inputs of the benchmark: they
are kept as generated, so later changes to the synthesizer do not change
what the workload measures.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from symdimer import cli_io, construct, lattice  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    out_dir = workloads.MODELS_DIR
    out_dir.mkdir(exist_ok=True)
    for old in out_dir.glob("*.json"):
        old.unlink()
    written = 0
    for i, (tag, poly) in enumerate(workloads.sweep_polygons()):
        gens = [lattice.Mat2(*g) for g in workloads.GENERATORS[tag]]
        try:
            sym = construct.synthesize(poly, gens)
        except construct.PlannerStuckError:
            continue
        meta = {
            "tag": sym.classification.tag,
            "generators": [list(g.rows()) for g in gens],
            "polygon": [[x, y] for x, y in sym.polygon],
            "fixed_face": sym.fixed_face,
        }
        doc = cli_io.model_to_doc(sym.model, meta)
        (out_dir / f"sweep_{i:02d}_{tag}.json").write_text(cli_io.emit_json(doc), encoding="utf-8")
        written += 1
    print(f"wrote {written} model documents to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
