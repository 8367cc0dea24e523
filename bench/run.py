"""Benchmark of lurestab: one process, seeded inputs, checked outputs.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --steadiness 10 --seconds 20

A run sets up its workload (import, input generation, one warm-up
operation), then repeats whole rounds of the workload's operations until
``--seconds`` have passed, checking every output against references made
apart from the program.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--steadiness`` runs two sets of runs of every workload in
fresh processes and prints the spread of each end-to-end metric against its
bound in BENCHMARK.json, and the drift between the two sets.
See README.md in this directory.
"""

import os

# One BLAS thread, set before numpy loads (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
WORKLOAD_NAMES = ["analytic", "dense-scale", "simulate", "simulate-linear"]
# Set-ups per run: this process's own plus fresh interpreters, since the
# import cost can be paid only once per process.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# Steadiness mode: two sets of runs; set k runs seeds
# STEADINESS_FIRST_SEED + k * runs, ... (the seeds of README.md's tables).
SETS = 2
STEADINESS_FIRST_SEED = 201
# Machine-speed probe: a fixed piece of Python bytecode plus one small LAPACK
# call.  Every timing is scaled by PROBE_NOMINAL_S / (probe time measured
# around it), so it reads as seconds at the speed at which the probe takes
# PROBE_NOMINAL_S (see README.md for why).
PROBE_LOOPS = 10_000
PROBE_N = 80
PROBE_NOMINAL_S = 0.004
_probe_matrix = None


def probe() -> float:
    """Wall time of the machine-speed probe."""
    global _probe_matrix
    import numpy as np

    if _probe_matrix is None:
        _probe_matrix = np.random.default_rng(0).uniform(0.0, 1.0, (PROBE_N, PROBE_N))
    t = perf_counter()
    total = 0.0
    for i in range(PROBE_LOOPS):
        total += i * 0.5
    np.linalg.eigvals(_probe_matrix)
    return perf_counter() - t


def speed_scale(repeats: int = 3) -> float:
    return PROBE_NOMINAL_S / statistics.median(probe() for _ in range(repeats))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it, and exit")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="runs per workload in each of two sets, each in a fresh process")
    args = parser.parse_args(argv)
    if (args.steadiness is None) == (args.workload is None):
        parser.error("give exactly one of --workload and --steadiness")
    return args


def setup(workload: str, seed: int):
    """Import lurestab, generate inputs and run one warm-up operation."""
    t0 = perf_counter()
    import workloads  # imports numpy and lurestab

    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, workdir, ROOT)
    wl.warmup()
    elapsed = perf_counter() - t0
    return wl, elapsed * speed_scale()


def child_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Timed:
    """What the timed phase saw.  Times are probe-scaled seconds, except
    ``raw_ops`` (wall seconds) and ``probes``."""

    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)
    raw_ops: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    layers: list = field(default_factory=list)


def run_rounds(ops, seconds: float, tracer) -> Timed:
    """Whole rounds of every operation until ``seconds`` have passed."""
    from workloads import THRESHOLD_FAULT

    timed = Timed(ops={op.name: [] for op in ops}, raw_ops={op.name: [] for op in ops})
    began = perf_counter()
    before = probe()
    while True:
        mark = tracer.mark() if tracer else None
        total = raw_total = 0.0
        for op in ops:
            t = perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raising operation is a failed one
                error = f"exception:{type(exc).__name__}:{exc}"
            dt = perf_counter() - t
            after = probe()
            scaled = dt * 2.0 * PROBE_NOMINAL_S / (before + after)
            before = after
            timed.probes.append(after)
            timed.raw_ops[op.name].append(dt)
            timed.ops[op.name].append(scaled)
            total += scaled
            raw_total += dt
            fails = [error] if error else op.check(result)
            timed.attempted += 1
            if fails:
                timed.failed += 1
                timed.unexpected += [f"{op.name}: {f}" for f in fails if f != THRESHOLD_FAULT]
        timed.rounds.append(total)
        if tracer:
            # spans hold wall time: scale them like the round they belong to
            layers = tracer.layer_metrics(mark, tracer.mark())
            timed.layers.append({k: v * total / raw_total if k.endswith("_s") else v
                                 for k, v in layers.items()})
        if perf_counter() - began >= seconds:
            return timed


def bench(args) -> int:
    if not (SRC / "lurestab" / "__init__.py").is_file():
        print(f"error: no lurestab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    ops = wl.operations()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    timed = run_rounds(ops, args.seconds, tracer)

    for name, times in timed.ops.items():
        print(f"{args.workload}: {name}: median {statistics.median(times):.6f} s", file=sys.stderr)
    for line in timed.unexpected[:20]:
        print(f"FAILED CHECK {line}", file=sys.stderr)
    print(f"{args.workload}: {len(timed.rounds)} rounds, {timed.attempted} operations, "
          f"{timed.failed} failed", file=sys.stderr)
    (WORK / args.workload / "timings.json").write_text(json.dumps(
        {"seed": args.seed, "setups": setups, "rounds": timed.rounds, "ops": timed.ops,
         "raw_ops": timed.raw_ops, "probes": timed.probes}))

    if tracer:
        tracer.uninstall()
        tracer.write(WORK / args.workload / "trace.npz")
        metrics = {}
        for name in timed.layers[0]:
            values = [r[name] for r in timed.layers]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            else:
                metrics[name] = {"value": statistics.median_low(values), "unit": "count"}
        metrics["trace.run_s"] = {"value": statistics.median(timed.rounds), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(timed.rounds), "unit": "s"},
            "latency_s": {"value": statistics.median(t for v in timed.ops.values() for t in v),
                          "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not timed.unexpected, "attempted": timed.attempted,
                      "failed": timed.failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# steadiness mode


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def steadiness(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}  # (set, workload) -> list of run results
    for k in range(SETS):
        for i in range(args.steadiness):
            seed = STEADINESS_FIRST_SEED + k * args.steadiness + i
            for name in WORKLOAD_NAMES:
                out = one_run(name, seed, args.seconds, 0)
                results.setdefault((k, name), []).append(out)
                print(f"set {k + 1} seed {seed} {name}: " + ", ".join(
                    f"{m}={v['value']:.6g}" for m, v in out["metrics"].items()), file=sys.stderr)
    summary = {"seconds": args.seconds, "runs": args.steadiness, "workloads": {}}
    print("| workload | metric | set | median | q1 | q3 | spread | bound | within |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in WORKLOAD_NAMES:
        entry = summary["workloads"][name] = {}
        for metric, bound in bounds.items():
            medians = []
            for k in range(SETS):
                values = [r["metrics"][metric]["value"] for r in results[(k, name)]]
                med, q1, q3, sp = spread(values)
                medians.append(med)
                ok = sp <= bound
                entry.setdefault(metric, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": values})
                print(f"| {name} | {metric} | {k + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{sp:.4f} | {bound} | {'yes' if ok else 'NO'} |")
            drift = medians[1] / medians[0] - 1.0
            print(f"| {name} | {metric} | 2 vs 1 | drift {drift:+.4f} | | | | {bound} | "
                  f"{'yes' if abs(drift) <= bound else 'NO'} |")
        runs = [r for k in range(SETS) for r in results[(k, name)]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        entry["failed_shares"] = sorted(shares)
        entry["correct"] = correct
        print(f"| {name} | failed share | all | {sorted(shares)} | | | | | "
              f"{'yes' if len(shares) == 1 and correct else 'NO'} |")
    for name in WORKLOAD_NAMES:
        traced = one_run(name, STEADINESS_FIRST_SEED, args.seconds, 1)
        untraced = statistics.median(
            r["metrics"]["run_s"]["value"] for k in range(SETS) for r in results[(k, name)])
        over = traced["metrics"]["trace.run_s"]["value"] - untraced
        summary["workloads"][name]["trace_overhead_s"] = over
        print(f"tracing overhead {name}: traced run_s {traced['metrics']['trace.run_s']['value']:.6g}"
              f" - untraced {untraced:.6g} = {over:.6g} s ({over / untraced:+.1%})")
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "steadiness.json").write_text(json.dumps(summary, indent=1))
    return 0


def main() -> int:
    args = parse_args()
    if args.steadiness is not None:
        return steadiness(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
