"""End-to-end wall-clock benchmark: compile -> tune -> deploy -> serve.

Three ways to call it (from the repository root; ``src/`` is put on the path
here, no ``PYTHONPATH`` needed)::

    # one run of one workload — the protocol BENCHMARK.json describes.
    # The last stdout line is {"correct", "attempted", "failed", "metrics"}:
    # end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
    python3 benchmarks/e2e/run.py --workload serve_small --seed 3 \
        --seconds 12 --trace 0

    # the suite: every workload (or --workload NAME), each run in a fresh
    # subprocess, --runs seeds each, plus one traced run each with --traced;
    # prints every metric by name with unit and writes a results file.
    python3 benchmarks/e2e/run.py [--seed N] [--runs K] [--traced] [--out F]

    # two results files against each metric's own bound
    python3 benchmarks/e2e/run.py --compare A.json B.json

Exit status is non-zero when any operation or output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from trace import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: the driver allows 180 s per run; a child that overruns is killed
CHILD_TIMEOUT_S = 175


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def _header(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace)}


def _child_command(args, *extra: str) -> list:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def _setup_in_subprocess(args) -> float:
    """Set-up seconds of a fresh process doing only this workload's set-up."""
    done = subprocess.run(_child_command(args, "--trace", "0", "--setup-only"),
                          cwd=ROOT, text=True, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    workload_spec = spec.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    repeats = [] if args.setup_only else [
        _setup_in_subprocess(args) for _ in range(workload_spec["setups"] - 1)]

    tracer = Tracer(bool(args.trace), run=f"{args.workload}-{args.seed}")
    start = time.perf_counter()
    with tracer.span("run", workload=args.workload):
        with tracer.span("setup"):
            with tracer.span("setup.import"):
                import workloads
            run = workloads.Run(args.workload, args.seed, args.seconds,
                                tracer, OUT_DIR)
            setup, measure = workloads.WORKLOADS[args.workload]
            state = setup(run)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            if "engine" in state:
                state["engine"].shutdown()
            print(repr(setup_s))
            return 0
        with tracer.span("measure"):
            measured_from = time.perf_counter()
            end_to_end, layer = measure(run, state)
            measured_s = time.perf_counter() - measured_from

    end_to_end["setup_s"] = statistics.median([setup_s] + repeats)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer.enabled:
        layer["frontend.build_s"] = tracer.total("frontend.build")
        layer["runtime.serving.shutdown_s"] = tracer.total(
            "runtime.serving.shutdown")
        layer["bench.trace_overhead_ratio"] = measured_s / (
            measured_s - tracer.bookkeeping_seconds())
        layer["bench.span_residual_share"] = (
            self_times(tracer.spans)["measure"] / measured_s)
        stem = OUT_DIR / f"trace-{args.workload}-{args.seed}"
        tracer.write_jsonl(f"{stem}.jsonl")
        tracer.write_chrome(f"{stem}.chrome.json")

    def rows(table, values):
        # A layer this workload never enters did no work: 0.
        return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                            "unit": m["unit"]} for m in table}

    from helpers import summary     # numpy: imported after the set-up clock

    record = {"header": _header(args),
              # median, highest percentile with ten samples beyond it, count
              "op_latency_s": summary(run.op_latencies),
              "end_to_end": rows(spec.END_TO_END, end_to_end),
              "per_layer": {}, "absent": [], "notes": run.notes}
    if tracer.enabled:
        record["per_layer"] = rows(spec.PER_LAYER, layer)
        # reported as 0: a layer this workload never enters, or an API the
        # metric reads that no longer exists
        record["absent"] = sorted(m["name"] for m in spec.PER_LAYER
                                  if m["name"] not in layer)
    shown = record["per_layer"] if tracer.enabled else record["end_to_end"]
    for name, row in shown.items():
        print(f"{args.workload:<20} {name:<40} {row['value']:>14.6g} "
              f"{row['unit']}")
    tail = record["op_latency_s"]
    print(f"{args.workload:<20} op latency: n={tail['n']} "
          f"p50={tail['p50'] * 1e3:.6g} ms"
          + (f" p{tail['tail_percentile']:g}={tail['tail'] * 1e3:.6g} ms"
             if (tail["tail_percentile"] or 0) > 50 else
             " (too few samples for a tail percentile)"))
    for note in run.notes:
        print(f"FAILED: {note}")
    print(json.dumps(record))
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": shown}), flush=True)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The suite: every workload in its own fresh subprocess
# ---------------------------------------------------------------------------

def _run_child(args, workload: str, seed: int, trace: int) -> dict:
    """Run one workload in a fresh process; its record plus its verdict."""
    child = argparse.Namespace(workload=workload, seed=seed,
                               seconds=args.seconds)
    done = subprocess.run(_child_command(child, "--trace", str(trace)),
                          cwd=ROOT, text=True, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result "
                           f"(exit {done.returncode}):\n{done.stderr}")
    record = json.loads(lines[-2])
    record["verdict"] = {k: v for k, v in json.loads(lines[-1]).items()
                         if k != "metrics"}
    return record


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0], None
    from helpers import spread

    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, spread(values)


def run_suite(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results = {"header": None, "runs": args.runs, "seed": args.seed,
               "seconds": args.seconds, "workloads": {}}
    failed = False
    for workload in names:
        untraced = []
        for i in range(args.runs):
            record = _run_child(args, workload, args.seed + i, 0)
            untraced.append(record)
            failed |= not record["verdict"]["correct"]
            print(f"[{workload}] seed {args.seed + i}: "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v
                              in record["end_to_end"].items())
                  + f"  {record['verdict']}", flush=True)
        results["header"] = {k: v for k, v in untraced[0]["header"].items()
                             if k not in ("workload", "seed", "traced")}
        entry = {"why": spec.WORKLOADS[workload]["why"],
                 "op": spec.WORKLOADS[workload]["op"],
                 "loop": spec.WORKLOADS[workload]["loop"],
                 "op_latency_s": untraced[0]["op_latency_s"],
                 "end_to_end": {}, "per_layer": {}, "notes": [],
                 "attempted": sum(r["verdict"]["attempted"] for r in untraced),
                 "failed": sum(r["verdict"]["failed"] for r in untraced)}
        for metric in spec.END_TO_END:
            values = [r["end_to_end"][metric["name"]]["value"]
                      for r in untraced]
            q1, median, q3, iqr_share = _quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "clock": "wall", "n": len(values),
                "median": median, "q1": q1, "q3": q3, "spread": iqr_share,
                "values": values}
        for record in untraced:
            entry["notes"].extend(record["notes"])
        if args.traced:
            traced = _run_child(args, workload, args.seed, 1)
            failed |= not traced["verdict"]["correct"]
            entry["notes"].extend(traced["notes"])
            entry["absent"] = traced["absent"]
            for metric in spec.PER_LAYER:
                entry["per_layer"][metric["name"]] = {
                    "value": traced["per_layer"][metric["name"]]["value"],
                    "unit": metric["unit"], "clock": metric["clock"],
                    "moves": metric["moves"]}
            # What tracing cost: the traced run's operation latency over
            # the untraced median (the traced run is never reported as an
            # end-to-end number).
            entry["trace_overhead_ratio"] = {
                "op_p50_ms": traced["end_to_end"]["op_p50_ms"]["value"]
                / entry["end_to_end"]["op_p50_ms"]["median"]}
        results["workloads"][workload] = entry

    print(f"\n{'workload':<20} {'metric':<40} {'median':>12} {'unit':<8} "
          f"{'n':>3} {'spread':>8} {'bound':>6}")
    for workload, entry in results["workloads"].items():
        for name, row in entry["end_to_end"].items():
            shown = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"{workload:<20} {name:<40} {row['median']:>12.6g} "
                  f"{row['unit']:<8} {row['n']:>3} {shown:>8} "
                  f"{row['bound']:>6.2f}")
        for name, row in entry["per_layer"].items():
            print(f"{workload:<20} {name:<40} {row['value']:>12.6g} "
                  f"{row['unit']:<8}")
        for name, ratio in entry.get("trace_overhead_ratio", {}).items():
            print(f"{workload:<20} {'traced/untraced ' + name:<40} "
                  f"{ratio:>12.4f} ratio")
        for note in entry["notes"]:
            print(f"{workload:<20} FAILED: {note}")
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# --compare A.json B.json
# ---------------------------------------------------------------------------

def verdict(a: dict, b: dict) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one end-to-end metric on one
    workload: B's median against A's, judged by the metric's own bound."""
    spreads = [s for s in (a["spread"], b["spread"]) if s is not None]
    if spreads and max(spreads) > a["bound"]:
        return "unresolved"     # the runs disagree by more than the bound
    change = (b["median"] - a["median"]) / a["median"]
    if a["better"] == "higher":
        change = -change
    return "worse" if change > a["bound"] else "ok"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for side, data in (("A", a), ("B", b)):
        print(f"{side}: {data['header']} runs={data['runs']} "
              f"seed={data['seed']}")
    print(f"{'workload':<20} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    any_worse = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for name, row_a in a["workloads"][workload]["end_to_end"].items():
            row_b = b["workloads"][workload]["end_to_end"][name]
            outcome = verdict(row_a, row_b)
            any_worse |= outcome == "worse"
            print(f"{workload:<20} {name:<16} {row_a['median']:>12.6g} "
                  f"{row_b['median']:>12.6g} "
                  f"{row_b['median'] / row_a['median']:>7.3f} "
                  f"{row_a['bound']:>6.2f}  {outcome}")
    return 1 if any_worse else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process and print "
                             "the result line (0: end-to-end, 1: per-layer)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: untraced runs per workload, seeds "
                             "--seed .. --seed+runs-1")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one traced run per workload")
    parser.add_argument("--out", help="suite: results file "
                                      "(default benchmarks/e2e/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden/*.npz from the unfused build")
    args = parser.parse_args(argv)

    # One BLAS thread per process, set before anything imports numpy
    # (children inherit it; a value already in the environment wins).  The
    # parallelism under test is the engine's workers and the measurer's
    # threads.  Left at its default on this 2-core host, a second BLAS thread
    # bought 13 % of resnet-18's solo wall for 2x the CPU, and two workers x
    # two spinning BLAS threads made the same code read 100 ms in one run and
    # 150 ms in the next.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_golden:
        import workloads

        workloads.write_golden()
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
