"""tribvp benchmark: one command that runs a workload, checks every result and
prints every metric with its name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the tribvp sources next to it (src/).  The
workloads are in workloads.py, the problem generators in problems.py and the
tracing wrappers in tracing.py; BENCHMARK.json at the repository root lists
the metrics and their units.

The run repeats passes of the workload's operation mix (closed loop, one
client, one operation at a time) until --seconds have gone by.  After every
untraced operation it times a fixed pure-Python workload, the reference,
which runs no tribvp code, and corrects the operation's wall time for the
speed the machine ran at:

    adjusted = wall * sqrt(REFERENCE_NOMINAL_S / R)

with R the mean of the reference times just before and just after it.  With
--trace 0 it reports the end-to-end metrics:

    setup_s           median over fresh interpreters of import, problem
                      generation and loads (wall time)
    pass_adj_s        one pass of the mix, each operation counted at its
                      kind's median adjusted time over the run
    op_geomean_adj_s  geometric mean of those times over the operations of
                      one pass, so a slower short operation (degree_s next
                      to check_s) shows as well as a slower long one

Why: on a shared machine a neighbour can nearly double the time of this
code for seconds to minutes at a time, often longer than a run, so wall
times of runs on the same code spread past any useful bound.  tribvp's
operations slow by 0.36 to 0.77 (log-log slope, per workload) of the
reference's slowdown, so the square root corrects each workload by about
the right amount; dividing by R outright over-corrects.  The run and every
process it starts stay on one CPU, so that an operation and the reference
around it are timed on the same one.  Wall times are printed too, per kind
(cli_solve_s, solve_s.n800, ...) and as pass_s, the pass at each kind's
median wall time.

With --trace 1 every pass runs twice, untraced and then traced, and the run
reports the per-layer figures of the traced passes (per pass) and the
tracing overhead (traced minus untraced).  The untraced run also prints
each kind's mean, median, fastest time and sample count (cli_solve_s, cli_check_s,
cli_degree_s, solve_s.n200, solve_s.n800, crossval_s.p1, crossval_s.p1t,
crossval_s.p2, check_s.anchored, check_s.p2, degree_s).  Both modes print
fail_frac, crossval_flag_frac, and a JSON record with the run's metadata,
every failure and the raw samples on the line before the result, which is
the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every operation passed its checks, 1 when one failed
(each failure is listed on stderr and in the record), 2 when the benchmark
itself cannot run (no tribvp sources, a set-up probe failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1        # one process, one thread: the steadiest figures
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
IMPORT_PROBES = 2
PROBE_TIMEOUT_S = 120

NOTES = [
    "n >= 3200 is out of reach for p1_scaling at this commit: the dense "
    "finite-difference Newton fallback builds a (2n+2)^2 Jacobian of doubles, "
    "328 MB at n=3200 and 1.3 GB at n=6400, and fills it with 2n+2 map "
    "evaluations per Newton step.",
    "crossval_flag_frac counts cross_validate results with "
    "disagreement_flagged; the flag compares the second-order trapezoid map "
    "with fourth-order RK4 against 100*tol, so it is reported, not failed.",
    "Per-kind timings are given as mean and median over the run with their "
    "sample count; p90 is added where a kind has at least 100 samples. "
    "pass_adj_s and op_geomean_adj_s are built from per-kind medians of "
    "adjusted times: each operation's wall time times "
    "sqrt(REFERENCE_NOMINAL_S / R), R the reference workload's time around it.",
]

# ROADMAP item 1, measured before this benchmark existed (2-core x86-64,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, single wall-clock runs).
ROADMAP_BASELINE_S = {
    "import tribvp": 1.12,
    "cli solve steep_slope.prob": 1.36,
    "p1 n=400 fixed-point solve": 0.886,
    "check steep_slope": 0.189,
    "degree steep_slope": 0.011,
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ----------------------------------------------------------------- the loop

REFERENCE_STEPS = 20_000     # with the list below, 15-30 ms here
REFERENCE_ITEMS = 30_000
REFERENCE_NOMINAL_S = 0.02   # a constant scale: adjusted = wall where R = this


def _reference_step(t: float, u: float, v: float, h: float) -> tuple[float, float]:
    a = (t + u * h, v - u * 0.5)
    return a[0] * 0.5 + math.atan(a[1]), math.cos(t) * v


def _reference_s() -> float:
    """Wall time of a fixed pure-Python workload that calls no tribvp code:
    a scalar stepping loop (calls, tuples, math) like the shooting sweep's,
    then a list of floats built, summed into a dict and sorted."""
    start = time.perf_counter()
    t, u, v = 0.0, 0.1, 0.2
    for _ in range(REFERENCE_STEPS):
        u, v = _reference_step(t, u, v, 1e-3)
        t += 1e-3
    xs = [(i * 7919 % 30011) / 30011.0 for i in range(REFERENCE_ITEMS)]
    sums: dict[int, float] = {}
    for i, x in enumerate(xs):
        sums[i % 1000] = sums.get(i % 1000, 0.0) + x
    xs.sort()
    return time.perf_counter() - start


class Tally:
    """What a run attempted, what failed, and each untraced operation's wall
    time and adjusted time (see the module docstring)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[dict] = []
        self.times: dict[str, list[float]] = {}
        self.adjusted: dict[str, list[float]] = {}
        self.references: list[float] = []
        self.label_times: dict[str, list[float]] = {}
        self.crossvals = 0
        self.flagged = 0

    def run(self, op, tracer) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                seen = op.run(None)
            else:
                with tracer.operation(op.kind):
                    seen = op.run(tracer)
        except Exception as exc:  # any exception fails the operation; go on
            seen = None
            self.failures.append({"seed": self.seed, "kind": op.kind,
                                  "problem": op.label,
                                  "error": f"{type(exc).__name__}: {exc}"})
        elapsed = time.perf_counter() - start
        if tracer is None:
            if not self.references:
                self.references.append(_reference_s())
            before = self.references[-1]
            self.references.append(_reference_s())
            speed = REFERENCE_NOMINAL_S / (0.5 * (before + self.references[-1]))
            self.adjusted.setdefault(op.kind, []).append(elapsed * math.sqrt(speed))
            self.times.setdefault(op.kind, []).append(elapsed)
            self.label_times.setdefault(f"{op.kind} {op.label}", []).append(elapsed)
        if seen is not None and "flagged" in seen:
            self.crossvals += 1
            self.flagged += int(seen["flagged"])
        return elapsed


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _measure(passes, seconds: float, tally: Tally, tracer):
    """Repeat the passes until `seconds` are up; returns the untraced and
    the traced pass times.

    Untraced, the loop stops before an operation that would, at its kind's
    mean time so far, end after the deadline, once every operation of the
    mix has run.  With a tracer every pass runs untraced and then traced,
    and the loop stops at pass boundaries the same way, after the first
    pair.  So a run lasts about `seconds` however long one operation is.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        ops = passes[i % len(passes)]
        if tracer is None:
            spent = 0.0
            for op in ops:
                if i and time.perf_counter() + _mean(tally.times[op.kind]) > deadline:
                    return plain, traced
                spent += tally.run(op, None)
            plain.append(spent)
        else:
            if i and time.perf_counter() + _mean(plain) + _mean(traced) > deadline:
                return plain, traced
            plain.append(sum(tally.run(op, None) for op in ops))
            with tracer.installed():
                traced.append(sum(tally.run(op, tracer) for op in ops))
        i += 1


# ------------------------------------------------------------------- probes

def _probe(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probe {cmd[1:]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc


def _setup_seconds(workload: str, seed: int) -> list[float]:
    script = str(ROOT / "perfbench" / "setup_probe.py")
    return [float(_probe([sys.executable, script, workload, str(seed)]).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def _import_seconds() -> tuple[list[float], list[float]]:
    """Cumulative `-X importtime` of tribvp and of scipy.stats within it."""
    whole, scipy_stats = [], []
    for _ in range(IMPORT_PROBES):
        err = _probe([sys.executable, "-X", "importtime", "-c", "import tribvp"]).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        whole.append(cumulative["tribvp"])
        scipy_stats.append(cumulative.get("scipy.stats", 0.0))
    return whole, scipy_stats


# ----------------------------------------------------------------- metadata

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _pin_cpu() -> tuple[int, int]:
    """Keep the run, and every process it starts, on one CPU.  The two CPUs
    of a shared machine can run at different speeds at the same moment, so
    an operation and the reference loop timed around it must share one.
    Returns the CPUs allowed before and the one kept."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return len(allowed), allowed[0]


def _metadata(args, passes, cpus: tuple[int, int]) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "n": sorted({op.n for ops in passes for op in ops}),
        "nproc": os.cpu_count(), "cpu_affinity": cpus[0], "pinned_cpu": cpus[1],
        "cpu_model": _cpu_model(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------------ results

def _kind_stats(tally: Tally) -> dict[str, dict]:
    out = {}
    for kind, xs in sorted(tally.times.items()):
        adjusted = tally.adjusted[kind]
        entry = {"n": len(xs), "mean_s": statistics.fmean(xs),
                 "median_s": statistics.median(xs), "best_s": min(xs),
                 "median_adj_s": statistics.median(adjusted),
                 "samples_s": xs, "samples_adj_s": adjusted}
        if len(xs) >= 100:
            entry["p90_s"] = statistics.quantiles(xs, n=10)[-1]
        out[kind] = entry
    return out


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> int:
    if not (ROOT / "src" / "tribvp" / "__init__.py").is_file():
        raise BenchError(f"no tribvp sources under {ROOT / 'src'}")
    spec = _benchmark_spec()
    cpus = _pin_cpu()
    for var in BLAS_VARS:               # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path.insert(0, str(ROOT / "src"))

    import tribvp
    import workloads

    if not Path(tribvp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"tribvp imported from {tribvp.__file__}, not {ROOT / 'src'}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(choices: {', '.join(workloads.WORKLOADS)})")

    in_process = bool(args.trace)
    passes = workloads.WORKLOADS[args.workload](args.seed, ROOT, in_process)
    tally = Tally(args.seed)
    record = {"meta": _metadata(args, passes, cpus), "notes": NOTES,
              "roadmap_baseline_s": ROADMAP_BASELINE_S}

    if args.trace:
        import tracing
        imports, scipy_stats = _import_seconds()
        tracer = tracing.Tracer()
        plain, traced = _measure(passes, args.seconds, tally, tracer)
        metrics = tracer.layer_metrics(len(traced))
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.import.scipy_s"] = statistics.median(scipy_stats)
        metrics["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced, plain))
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        wanted = spec["per_layer"]
        spans_path = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        record["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                           "count": tracer.write_spans(spans_path)}
    else:
        setups = _setup_seconds(args.workload, args.seed)
        plain, _ = _measure(passes, args.seconds, tally, None)
        adjusted = {kind: statistics.median(xs) for kind, xs in tally.adjusted.items()}
        mix = [op.kind for op in passes[0]]
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_adj_s": sum(adjusted[kind] for kind in mix),
            "op_geomean_adj_s": math.exp(statistics.fmean(math.log(adjusted[kind]) for kind in mix)),
        }
        record["setup_samples_s"] = setups
        record["pass_s"] = sum(statistics.median(tally.times[kind]) for kind in mix)
        record["reference_s"] = {
            "n": len(tally.references), "mean": statistics.fmean(tally.references),
            "median": statistics.median(tally.references),
            "min": min(tally.references), "max": max(tally.references)}
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match BENCHMARK.json")
    record.update({
        "passes": len(plain), "pass_times_s": plain,
        "kinds": {} if args.trace else _kind_stats(tally),
        "ops_median_s": {} if args.trace else {
            label: statistics.median(xs) for label, xs in sorted(tally.label_times.items())},
        "fail_frac": len(tally.failures) / tally.attempted,
        "crossval_flag_frac": (tally.flagged / tally.crossvals
                               if tally.crossvals else None),
        "failures": tally.failures,
        "metrics": metrics,
    })

    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {units[name]}")
    if "pass_s" in record:
        ref = record["reference_s"]
        print(f"pass_s = {record['pass_s']:.6g} s (wall time; reference loop "
              f"mean {ref['mean']:.6g} s over {ref['n']})")
    for kind, entry in record["kinds"].items():
        p90 = f" p90 {entry['p90_s']:.6g} s" if "p90_s" in entry else ""
        print(f"{kind} = {entry['median_s']:.6g} s (median of {entry['n']}; "
              f"mean {entry['mean_s']:.6g} s; best {entry['best_s']:.6g} s; "
              f"adjusted {entry['median_adj_s']:.6g} s){p90}")
    print(f"fail_frac = {record['fail_frac']:.6g} ratio "
          f"({len(tally.failures)} of {tally.attempted})")
    if tally.crossvals:
        print(f"crossval_flag_frac = {record['crossval_flag_frac']:.6g} ratio "
              f"({tally.flagged} of {tally.crossvals})")
    for failure in tally.failures:
        print(f"FAILED seed={failure['seed']} {failure['kind']} "
              f"{failure['problem']}: {failure['error']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not tally.failures, "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 1 if tally.failures else 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
