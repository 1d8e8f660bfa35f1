"""paroeig benchmark: time one fixed workload from outside the package.

    python3 perfbench/run.py --workload lshape_n1 --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Runs the workload's main call (see workloads.py) again and again for
--seconds, checks every run, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics from untraced runs; --trace 1 alternates untraced
and traced runs and reports the per-layer metrics of the traced ones.
--workload all runs every workload in its own process and prints each
report in turn. README.md lists the workloads and what each metric
serves.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, so the only parallelism is
# the orbital pool (at most nproc threads). Child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3

# A fresh interpreter imports paroeig (numpy, scipy) and builds the inputs.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
         "workloads.build(workloads.load_paroeig(), sys.argv[2], "
         "int(sys.argv[3]))")

# span name -> per-layer self-time metric
SELF_TIMES = {
    "adapt.adaptive_solve": "adapt.self_s",
    "adapt.default_seed_vectors": "adapt.default_seed_vectors_s",
    "adapt.dorfler_mark": "adapt.dorfler_mark_s",
    "adapt.transfer_block": "adapt.transfer_block_s",
    "paro.paro_inner_loop": "paro.paro_inner_loop_s",
    "paro.orbital_update": "paro.orbital_update_s",
    "paro.ritz_step": "paro.ritz_step_s",
    "linalg.b_orthonormalize": "linalg.b_orthonormalize_s",
    "linalg.dense_sym_gen_eig": "linalg.dense_sym_gen_eig_s",
    "estimator.estimate": "estimator.estimate_s",
    "assembly.assemble": "assembly.assemble_s",
    "mesh.refine": "mesh.refine_s",
    "mesh.uniform_refine": "mesh.uniform_refine_s",
    "mesh.interpolate": "mesh.interpolate_s",
    "verify.reference_eig": "verify.reference_eig_s",
}
CALLS = {
    "paro.orbital_update": "paro.orbital_update_calls",
    "estimator.estimate": "estimator.estimate_calls",
    "assembly.assemble": "assembly.assemble_calls",
    "mesh.refine": "mesh.refine_calls",
    "linalg.minres": "linalg.minres_calls",
}
NO_SPANS = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": []}
# per-layer metrics that must repeat exactly between same-seed runs
COUNTS = ("adapt.levels", "adapt.sweeps", "mesh.final_dofs",
          "mesh.final_triangles", "linalg.minres_iters",
          "assembly.assemble_calls")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in ("trace.closure", "final_eta_sq"):
        return "1"
    return "count"


def setup_seconds(name, seed):
    """Median wall time of fresh processes that import and build.

    No timeout: with one, subprocess polls the child every 50 ms and
    the times come out in 50 ms steps.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, str(HERE), name,
                        str(seed)], cwd=workloads.ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, result):
    """Per-layer metrics of one traced solve."""
    per_name, root_s, closure = spans.summarize(tracer.spans,
                                                tracer.main_thread)
    minres = per_name.get("linalg.minres", NO_SPANS)
    iters = [c["iters"] for c in minres["counts"]]
    flags = [c["flag"] for c in minres["counts"]]
    out = {
        "linalg.minres_busy_s": minres["busy_s"],
        "linalg.minres_iters": sum(iters),
        "linalg.minres_iters_max": max(iters, default=0),
        "linalg.minres_breakdown": flags.count("breakdown"),
        "linalg.minres_max_iter": flags.count("max_iter"),
        "adapt.levels": result.levels,
        "adapt.sweeps": result.sweeps,
        "mesh.final_dofs": result.dofs,
        "mesh.final_triangles": result.mesh.n_triangles,
        "trace.solve_s": root_s,
        "trace.closure": closure,
    }
    out.update({m: per_name.get(n, NO_SPANS)["self_s"]
                for n, m in SELF_TIMES.items()})
    out.update({m: per_name.get(n, NO_SPANS)["calls"]
                for n, m in CALLS.items()})
    return out, per_name, root_s


def phase_table(per_name, root_s):
    lines = [f"{'span':28} {'calls':>6} {'self_s':>9} {'share':>7}"]
    rows = sorted(per_name.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        if name == spans.ROOT:
            continue
        lines.append(f"{name:28} {row['calls']:6d} {row['self_s']:9.4f} "
                     f"{100 * row['self_s'] / root_s:6.1f}%")
    pool = per_name.get("linalg.minres", NO_SPANS)["busy_s"]
    lines.append(f"linalg.minres busy, all threads: {pool:.4f} s; "
                 f"traced solve: {root_s:.4f} s")
    return "\n".join(lines)


def timed_solve(paroeig, solve, tracer):
    """One solve and its wall time; traced, every target is wrapped."""
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        result = solve()
        return result, time.perf_counter() - t0
    with tracer.installed(paroeig), tracer.span(spans.ROOT) as root:
        result = solve()
    return result, root.duration


class Runs:
    """The solves of one benchmark run and what they measured.

    The first good solve is checked against the reference; later ones
    must repeat its results, and traced ones the first traced counts.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.times = []          # untraced solve_s
        self.layers = []         # per-layer metrics of each traced solve
        self.table = None        # phase table of the first traced solve
        self.final_eta_sq = self.peak_rss_mb = None
        self._first = self._first_counts = None

    def problems(self, paroeig, name, coeffs, result, tracer):
        if self._first is None:
            # later solves only add allocator noise to the peak
            self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024)
            problems = workloads.check(paroeig, name, result, coeffs)
            self._first = result.summary()
            self.final_eta_sq = result.final_eta_sq
        elif result.summary() != self._first:
            problems = ["results differ from the first run"]
        else:
            problems = []
        if tracer is not None:
            metrics, per_name, root_s = layer_metrics(tracer, result)
            counts = {k: metrics[k] for k in COUNTS}
            if self._first_counts is None:
                self._first_counts = counts
                self.table = phase_table(per_name, root_s)
            elif counts != self._first_counts:
                problems.append(f"counts {counts} differ from the first "
                                f"traced run {self._first_counts}")
            if not problems:
                self.layers.append(metrics)
        return problems


def measure(paroeig, name, seed, seconds, traced):
    """Solve until the next solve would end past --seconds; with tracing,
    untraced and traced solves alternate, one of each at least."""
    solve, coeffs = workloads.build(paroeig, name, seed)
    kinds = (False, True) if traced else (False,)
    runs = Runs()
    last = 0.0
    deadline = time.perf_counter() + seconds
    while (runs.attempted < len(kinds)
           or time.perf_counter() + last <= deadline):
        tracer = (spans.Tracer() if kinds[runs.attempted % len(kinds)]
                  else None)
        runs.attempted += 1
        start = time.perf_counter()
        try:
            result, last = timed_solve(paroeig, solve, tracer)
            problems = runs.problems(paroeig, name, coeffs, result, tracer)
        except Exception as exc:  # a failed solve is counted, not fatal
            last = time.perf_counter() - start
            problems = [repr(exc)]
        if problems:
            runs.failed += 1
            print(f"solve {runs.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        elif tracer is None:
            runs.times.append(last)
    return runs


def environment(name):
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "pool_width": workloads.pool_width(name, nproc),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_one(args):
    try:
        paroeig = workloads.load_paroeig()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = setup_seconds(args.workload, args.seed)
    runs = measure(paroeig, args.workload, args.seed, args.seconds,
                   args.trace)
    metrics = {}
    if args.trace and runs.layers and runs.times:
        metrics = {k: statistics.median(m[k] for m in runs.layers)
                   for k in runs.layers[0]}
        metrics["trace.overhead_s"] = (metrics["trace.solve_s"]
                                       - statistics.median(runs.times))
        print(runs.table)
    elif not args.trace and runs.times:
        metrics = {"solve_s": statistics.median(runs.times),
                   "setup_s": setup_s, "peak_rss_mb": runs.peak_rss_mb,
                   "final_eta_sq": runs.final_eta_sq}
    env = environment(args.workload)
    env.update(workload=args.workload, seed=args.seed,
               solve_s=[round(t, 4) for t in runs.times],
               traced_solve_s=[round(m["trace.solve_s"], 4)
                               for m in runs.layers])
    print("env " + json.dumps(env))
    print(f"fail_rate = {runs.failed}/{runs.attempted}")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {unit_of(key)}")
    print(json.dumps({
        "correct": bool(metrics) and runs.failed == 0,
        "attempted": runs.attempted, "failed": runs.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0 if metrics else 1


def run_all(args):
    """Each workload in its own process; echoes their reports."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
