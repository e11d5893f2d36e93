"""Planner benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {mix,fleet,audit} --seed N
                             --seconds S --trace {0,1} [--out DIR]

Run from the repository root; the package is imported from ``src/``.  The
process is a closed loop with one client: passes over the workload's
instances run back to back for about ``--seconds`` seconds, each operation
starting after the previous one ends.  BLAS is pinned to one thread.

Every operation is timed next to a fixed piece of reference work, and the
end-to-end times are scaled to a host of fixed speed (see ``speed.py``),
because the shared host's own speed changes by up to 1.7x from one minute
to the next.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead and the share of traced time that no layer span
covers.  Every
plan is verified, audit plans are checked against the enumerated minimum,
and every pass must write the same plan bytes; a failure makes ``correct``
false and the exit code 1.  The last line of standard output is a JSON
object; the full results (provenance, fingerprints, spans) are written
under ``--out``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import EVERY_S, NEAR, REFERENCE_N, REFERENCE_S, SpeedClock, scale
from workloads import COLLECTIVE_KINDS, WORKLOADS, workload

# BLAS runs one thread: the machine has two cores, and the load must
# measure the planner, not the BLAS thread scheduler.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Import time is measured in a fresh interpreter before every round of
# passes, so the samples spread over the run, and at least this many times.
SETUP_SAMPLES = 5
# The probe times the reference work (see speed.py) three times before and
# three times after the import, in the same process.
_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
sys.path[0] = sys.argv[1]
ref = [speed.reference_seconds() for _ in range(3)]
t = time.perf_counter()
import shardplan.cli
dt = time.perf_counter() - t
ref += [speed.reference_seconds() for _ in range(3)]
print(dt, *ref)
"""

END_TO_END = ("setup_s", "wall_s", "plan_s.p50", "verify_s.p50", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "plan_s.p50": "s", "plan_s.p90": "s",
         "verify_s.p50": "s", "plan_cost.geomean_s": "s",
         "failed_frac": "ratio", "peak_rss_mb": "MB"}
# The 90th percentile is reported only when a pass leaves more than ten
# samples beyond it.
P90_MIN_PLANS = 100

# Per-layer seconds are the self time of the spans with these names.
LAYER_TIMES = {
    "synthesizer.synthesize_s": "synthesizer.synthesize",
    "synthesizer.enumerate_s": "synthesizer.enumerate",
    "load_balancer.optimize_ratios_s": "load_balancer.optimize_ratios",
    "optimizer_loop.self_s": "optimizer_loop.alternate",
    "theory.build_s": "theory.build",
    "interpreter.build_shard_table_s": "interpreter.build_shard_table",
    "interpreter.check_equivalence_s": "interpreter.check_equivalence",
    "cost_model.iteration_time_s": "cost_model.iteration_time",
    "cost_model.cluster_parse_s": "cost_model.cluster_parse",
    "graph_ir.parse_s": "graph_ir.parse",
    "cli.plan_document_s": "cli.plan_document",
    "cli.serialize_s": "cli.serialize",
    "cli.load_plan_s": "cli.load_plan",
}
LAYER_COUNTS = (
    "synthesizer.calls", "synthesizer.expansions", "synthesizer.generated",
    "synthesizer.purged", "synthesizer.enumerate_states", "load_balancer.calls",
    "optimizer_loop.rounds", "optimizer_loop.balance_accepted",
    "optimizer_loop.polish_calls", "theory.triples", "interpreter.trials",
    "graph_ir.nodes", "cli.plan_bytes",
)


def probe_import() -> tuple[float, float]:
    """Seconds to import the package, and with it numpy, in a fresh
    interpreter: the set-up every CLI invocation pays.  Returns the seconds
    as measured and scaled to the reference host."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    dt, *ref = (float(x) for x in proc.stdout.split())
    return dt, dt * scale(ref)


def import_package() -> None:
    """Import the package into this process from ``src/``."""
    sys.path.insert(0, SRC)
    import shardplan.cli
    loaded = os.path.realpath(shardplan.cli.__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported shardplan from {loaded}, not from {SRC}")


def run_passes(instances, seconds: float, trace: bool):
    """Rounds of passes until another round would end past ``seconds``: an
    import probe, an untraced pass and, with tracing, a traced pass.

    Returns the untraced and traced (PassResult, Recorder) lists, the
    import probes' (measured, scaled) seconds and the run's SpeedClock.
    Only the first pass keeps its plans; every later pass records whether
    its plan bytes equal the first pass's, so memory does not grow with the
    number of passes.
    """
    from ops import Recorder, run_pass
    untraced, traced, setup = [], [], []
    clock = SpeedClock()
    first = None
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        setup.append(probe_import())
        for side, traced_side in ((untraced, False), (traced, True)):
            if traced_side and not trace:
                continue
            gc.collect()
            rec = Recorder(traced=traced_side)
            result = run_pass(instances, rec, clock)
            if first is None:
                first = result
            else:
                result.same_plans = result.plans == first.plans
                result.plans, result.kinds = {}, {}
            side.append((result, rec))
        last = time.perf_counter() - round_started
        if time.perf_counter() - started + last > seconds:
            break
    clock.sample()  # so the last operation has a reference timing after it
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe_import())
    return untraced, traced, setup, clock


def per_instance_median(passes, kind: str, seconds) -> dict[str, float]:
    """Each instance's median seconds for one kind of operation over the
    run's passes, ``seconds(start, measured)`` giving an operation's
    seconds."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for what, name, start, dt in p.timings:
            if what == kind:
                times.setdefault(name, []).append(seconds(start, dt))
    return {name: statistics.median(xs) for name, xs in times.items()}


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def end_to_end(passes, setup, seconds, attempted: int, failed: int) -> dict:
    """The end-to-end figures, with every time taken from
    ``seconds(start, measured)`` and the import probes' ``setup`` seconds."""
    wall_s = statistics.median(sum(seconds(start, dt) for _, _, start, dt in p.timings)
                               for p in passes)
    plan_s = sorted(per_instance_median(passes, "plan", seconds).values())
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "plan_s.p50": _median(plan_s),
        "verify_s.p50": _median(list(per_instance_median(passes, "verify",
                                                          seconds).values())),
        "plan_cost.geomean_s": passes[0].geomean_cost_s(),
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(plan_s) >= P90_MIN_PLANS:
        metrics["plan_s.p90"] = statistics.quantiles(plan_s, n=10)[-1]
    return metrics


def per_layer(untraced, traced) -> dict:
    """Means over traced passes of each layer's per-pass totals."""
    from ops import OP_PREFIX, self_times
    rows = []
    for p, rec in traced:
        times = self_times(rec.spans)
        row = {metric: times[name] for metric, name in LAYER_TIMES.items()}
        row.update({name: rec.counts[name] for name in LAYER_COUNTS})
        generated = rec.counts["synthesizer.generated"]
        row["synthesizer.expanded_per_generated"] = (
            rec.counts["synthesizer.expansions"] / generated if generated else 0.0)
        covered = sum(v for name, v in times.items() if not name.startswith(OP_PREFIX))
        row["trace.uncovered_frac"] = (p.wall_s - covered) / p.wall_s
        rows.append(row)
    out = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead_s"] = (statistics.fmean(p.wall_s for p, _ in traced)
                               - statistics.fmean(p.wall_s for p, _ in untraced))
    return out


def layer_units() -> dict:
    units = {m: "s" for m in LAYER_TIMES}
    units.update({m: "count" for m in LAYER_COUNTS})
    units.update({"synthesizer.expanded_per_generated": "ratio",
                  "trace.uncovered_frac": "ratio", "trace.overhead_s": "s"})
    return units


def check(untraced, traced, workload: str) -> list[str]:
    """Problems beyond the per-operation failures: plans must be the same
    bytes in every pass, traced or not, and every mix plan must contain the
    collective the workload was built to force."""
    problems = []
    if not all(p.same_plans for p, _ in untraced + traced):
        problems.append("plan bytes differ between passes")
    if workload == "mix":
        for name, kinds in untraced[0][0].kinds.items():
            if not kinds & set(COLLECTIVE_KINDS):
                problems.append(f"{name}: mix plan has no collective")
    return problems


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _count(p, kind: str) -> int:
    return sum(1 for t in p.timings if t[0] == kind)


def provenance(args, untraced, traced, setup, clock) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "blas_threads": BLAS_THREADS,
        "samples": {
            "setup": len(setup),
            "untraced_passes": len(untraced), "traced_passes": len(traced),
            "plans_per_pass": _count(untraced[0][0], "plan"),
            "plan": sum(_count(p, "plan") for p, _ in untraced),
            "verify": sum(_count(p, "verify") for p, _ in untraced),
            "enumerate": sum(_count(p, "enumerate") for p, _ in untraced),
            "reference": len(clock.seconds),
        },
        "reference": {"n": REFERENCE_N, "seconds": REFERENCE_S,
                      "every_s": EVERY_S, "near": NEAR},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for the results file")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")
    if not os.path.isfile(os.path.join(SRC, "shardplan", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    # Before numpy is imported here or in the import probes.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    import_package()
    instances = workload(args.workload, args.seed)
    untraced, traced, setup, clock = run_passes(instances, args.seconds,
                                                bool(args.trace))

    failures = [f for p, _ in untraced + traced for f in p.failures]
    problems = check(untraced, traced, args.workload)
    attempted = sum(p.attempted for p, _ in untraced + traced)
    passes = [p for p, _ in untraced]
    e2e = end_to_end(passes, [scaled for _, scaled in setup], clock.scaled,
                     attempted, len(failures))
    measured = end_to_end(passes, [dt for dt, _ in setup], lambda start, dt: dt,
                          attempted, len(failures))
    correct = not failures and not problems
    layers = per_layer(untraced, traced) if args.trace else {}
    layer_unit = layer_units()

    first = passes[0]
    plans_per_pass = _count(first, "plan")
    results = {
        "provenance": provenance(args, untraced, traced, setup, clock),
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "failures": failures, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "end_to_end_measured": {k: {"value": v, "unit": UNITS[k]}
                                for k, v in measured.items()},
        "per_layer": {k: {"value": v, "unit": layer_unit[k]}
                      for k, v in layers.items()},
        "fingerprint": {"plans_sha256": first.fingerprint(),
                        "explored": first.explored},
        "passes": {"untraced_wall_s": [p.wall_s for p, _ in untraced],
                   "traced_wall_s": [p.wall_s for p, _ in traced]},
        "setup_samples_s": [{"measured": dt, "scaled": scaled} for dt, scaled in setup],
        "reference_timings": list(zip(clock.starts, clock.seconds)),
        "op_timings": [p.timings for p in passes],
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump([{"pass": i, "spans": rec.spans}
                       for i, (_, rec) in enumerate(traced)], fh)

    for msg in failures + problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes, {plans_per_pass} plans per pass, "
          f"plans sha256 {first.fingerprint()[:16]}")
    print(f"  {'':<34} {'scaled':>14}   {'measured':>14}")
    for k, v in e2e.items():
        note = f"  ({plans_per_pass} plans per pass)" if k == "plan_s.p90" else ""
        print(f"  {k:<34} {v:>14.6g}   {measured[k]:>14.6g} {UNITS[k]}{note}")
    for k, v in layers.items():
        print(f"  {k:<34} {v:>14.6g} {layer_unit[k]}")

    chosen = layers if args.trace else {k: e2e[k] for k in END_TO_END}
    units = layer_unit if args.trace else UNITS
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
