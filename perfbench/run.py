"""Benchmark of the symdimer pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload synth_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --smoke             # a few cases each, untraced and traced

With --workload all, the default, each workload runs in a child
process of its own, so that each reports its own peak memory.

The load is a closed loop in one process and thread: each case starts
when the previous one ends.  A case over its workload's time limit is
stopped by SIGPROF and counted as failed.  A run makes a fixed number of
whole passes over the workload's cases, the workload's pass length
divided into --seconds, and each operation a fixed number of runs.  All
times are CPU times rescaled to a fixed host speed (see meter.py).  Each
case counts at the median of its operations over the passes; wall_s sums
these, op_p50_s is their median and op_tail_s their highest percentile
with at least ten cases beyond it.

--trace 0 prints the end-to-end metrics.  --trace 1 measures the same
passes untraced, then traced with every public function of the package
wrapped (see spans.py), and prints the per-layer metrics, each per
traced pass, together with the tracing overhead.

Every output is checked against an answer computed here; a wrong answer
prints the problem and makes the run exit with code 1.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import meter  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_share": "ratio",
    "char_checked_share": "ratio",
    "peak_rss_mb": "MB",
}


def import_symdimer():
    """A fresh import of every symdimer module from this checkout."""
    for name in [m for m in sys.modules if m == "symdimer" or m.startswith("symdimer.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"symdimer.{m}") for m in spans.LAYERS}
    origin = Path(sys.modules["symdimer"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"symdimer was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup(workload, seed, smoke):
    """Import the package and build the inputs, SETUP_REPEATS times after
    one warm-up; returns the last library, its cases and the median time,
    rescaled as in meter.py."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS + 1):
        refs.append(meter.reference_s())
        t0 = process_time()
        lib = import_symdimer()
        cases = workload.build(lib, random.Random(seed), smoke)
        times.append(process_time() - t0)
    scale = meter.scales(refs)
    return lib, cases, statistics.median(t * k for t, k in list(zip(times, scale))[1:])


def check_outputs(passes):
    """Known-answer checks on every completed operation.

    Returns (problems, records, verdicts, char_checked): records hold
    each failed or char-skipped operation with its reason class."""
    problems, records = [], []
    verdicts = checked = 0
    for index, ops in enumerate(passes):
        for op in ops:
            if op.status != "ok":
                records.append({"pass": index, "case": op.case.id, "reason": op.status, "message": op.message})
                continue
            try:
                verdict = op.case.check(op.out)
            except (KeyError, TypeError, ValueError) as exc:
                verdict = workloads.Verdict(problems=[f"unreadable output: {exc!r}"])
            problems.extend(f"{op.case.id}: {p}" for p in verdict.problems)
            verdicts += 1
            if verdict.char_checked:
                checked += 1
            else:
                records.append({"pass": index, "case": op.case.id, "reason": "char-skipped", "message": ""})
    return problems, records, verdicts, checked


def case_times(passes):
    """Each case's time: the median of its operations over the passes."""
    times = {}
    for ops in passes:
        for op in ops:
            times.setdefault(op.case.id, []).append(op.seconds)
    return [statistics.median(t) for t in times.values()]


def tail_percentile(n):
    """The highest whole percentile with at least ten of n samples beyond
    it (nearest rank); the maximum when there are too few samples."""
    return max((p for p in range(1, 100) if n - -(-p * n // 100) >= 10), default=100)


def end_to_end(passes, setup_s, verdicts, checked):
    times = case_times(passes)
    attempted = sum(map(len, passes))
    failed = sum(op.status != "ok" for ops in passes for op in ops)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": meter.percentile(times, tail_percentile(len(times))),
        "fail_share": failed / attempted,
        "char_checked_share": checked / verdicts if verdicts else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# Per-layer metrics and their units.  Each value is the total over the
# traced passes divided by their number.
SELF_AND_CALLS = (
    "surgery.reembed", "dimer.validate", "dimer.find_symmetry", "zigzag.zigzag_paths",
    "zigzag.check_consistency", "matchings.enumerate_matchings", "matchings.support",
    "lattice.exact_invariant_frame",
)
SELF_ONLY = (
    "surgery.cover", "construct.synthesize", "construct.select_envelope", "construct.verify_bundle",
    "dimer.remove_divalent", "matchings.invariant_matching_at_origin", "lattice.classify_generators",
    "quiver.quiver_of", "quiver.twisted_action", "cli_io.model_from_doc", "cli_io.emit_json",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{f"{fn}.{kind}": unit for fn in SELF_AND_CALLS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{fn}.self_s": "s" for fn in SELF_ONLY},
    "surgery.delete_edges.calls": "count",
    "surgery.gulotta_cut.calls": "count",
    "dimer.symmetry_actions.yielded": "count",
    "dimer.symmetry_actions.self_s": "s",
    "matchings.enumerate_matchings.results": "count",
    "matchings.enumerate_matchings.cap_hits": "count",
    "surgery.cut_yield": "ratio",
    "construct.chop_yield": "ratio",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def per_layer(tracer, n_passes, untraced_wall, traced_wall):
    """Returns the metrics and, for each, the count it is measured over."""
    values, bases = {}, {}
    for name in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if head in spans.LAYERS:
            values[name] = tracer.layer_self_s(head)
            bases[name] = f"every public function of {head}"
            continue
        stat = tracer.stat(head)
        if tail == "self_s" and head == "dimer.symmetry_actions":
            values[name] = stat.self_s
            bases[name] = f"{stat.yielded / n_passes:g} items yielded, each timed"
        elif tail == "self_s":
            values[name] = stat.self_s
            bases[name] = f"{stat.calls / n_passes:g} calls"
        elif tail in ("calls", "yielded", "results"):
            values[name] = getattr(stat, tail)
            bases[name] = f"{stat.calls / n_passes:g} calls" if tail == "results" else "count"
        elif tail == "cap_hits":
            values[name] = stat.raised["CapExceededError"]
            bases[name] = f"{stat.calls / n_passes:g} calls"
    values = {k: v / n_passes for k, v in values.items()}
    cut, chop, reembed = (tracer.stat(f"surgery.{f}") for f in ("gulotta_cut", "corner_chop", "reembed"))
    accepted = cut.returned + chop.returned
    values["surgery.cut_yield"] = accepted / reembed.calls if reembed.calls else 0.0
    bases["surgery.cut_yield"] = f"{accepted / n_passes:g} cuts and chops accepted / {reembed.calls / n_passes:g} reembed calls"
    values["construct.chop_yield"] = chop.returned / chop.calls if chop.calls else 0.0
    bases["construct.chop_yield"] = f"{chop.returned / n_passes:g} returned / {chop.calls / n_passes:g} corner_chop calls"
    values["traced_wall_s"] = traced_wall
    bases["traced_wall_s"] = "traced pass, each case at its median"
    values["trace_overhead_s"] = traced_wall - untraced_wall
    bases["trace_overhead_s"] = f"traced pass - untraced pass of {untraced_wall:.4g} s"
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    return metrics, bases


def run_workload(name, seed, seconds, traced, smoke):
    workload = workloads.WORKLOADS[name]
    lib, cases, setup_s = setup(workload, seed, smoke)
    limit = workload.time_limit_s
    n_passes = 1 if smoke else workload.passes(seconds)
    # a traced run makes single runs, so that counts are per execution
    # and the overhead compares like with like
    single = smoke or traced
    with meter.Meter(lib, limit) as m:
        passes = m.run_passes(cases, n_passes, single)
    problems, records, verdicts, checked = check_outputs(passes)
    if traced:
        tracer = spans.Tracer({layer: getattr(lib, layer) for layer in spans.LAYERS})
        tracer.install()
        try:
            with meter.Meter(lib, limit, tracer) as m:
                traced_passes = m.run_passes(cases, n_passes, single=True)
        finally:
            tracer.uninstall()
        more, _, _, _ = check_outputs(traced_passes)
        problems.extend(more)
        metrics, bases = per_layer(tracer, len(traced_passes), sum(case_times(passes)), sum(case_times(traced_passes)))
        for metric, value in metrics.items():
            print(f"layer {name} {metric} = {value['value']:.6g} {value['unit']}  "
                  f"(per traced pass; base: {bases[metric]})")
    else:
        metrics = end_to_end(passes, setup_s, verdicts, checked)
        for metric, value in metrics.items():
            print(f"metric {name} {metric} = {value['value']:.6g} {value['unit']}")
    for record in records:
        print("record " + json.dumps({"workload": name, **record}))
    n_ops = sum(len(ops) for ops in passes)
    failed = sum(op.status != "ok" for ops in passes for op in ops)
    runs = sorted({1 if single else case.runs for case in cases})
    print(f"summary {name}: {len(passes)} pass(es) of {len(cases)} cases, "
          f"{'/'.join(map(str, runs))} run(s) per operation, {n_ops} operations, "
          f"{failed} failed, {verdicts - checked} of {verdicts} verdicts skipped the char check, "
          f"op_tail_s is p{tail_percentile(len(cases))} of the {len(cases)} cases' times")
    for problem in problems:
        print(f"WRONG {name} {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": n_ops, "failed": failed, "metrics": metrics}


def run_children(names, args):
    """Runs each workload, untraced and for --smoke also traced, in a child
    process of its own; passes its output through and returns the results
    by (workload, traced)."""
    results = {}
    for name in names:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            if proc.returncode not in (0, 1):
                result["correct"] = False
            results[(name, trace)] = result
            print(f"result {name} trace={trace} " + json.dumps(result))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description="symdimer benchmark")
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cases per workload; with --workload all, untraced and traced")
    args = parser.parse_args(argv)

    if not (SRC / "symdimer" / "__init__.py").is_file():
        print(f"error: no symdimer sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        sys.path.insert(0, str(SRC))
        final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        results = run_children(list(workloads.WORKLOADS), args)
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for (name, _), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
