#!/usr/bin/env python3
"""rieszforge benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload construct_window --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Every op calls `rieszforge.cli.main` in this process, with stdout captured.
A run measures `setup_s` in fresh interpreters, warms up on a small variant
of the workload, then repeats passes over the workload's fixed op list until
`--seconds` is spent.  `wall_s` is the typical pass: the sum over ops of each
op's median time across passes.  The first pass's outputs go through the
independent checks in `checks.py`; later passes must reproduce them byte for
byte.  `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics from `layers.py` instead.

`wall_s` and `setup_s` are given at reference speed.  On a shared 2-vCPU VM
the effective CPU speed drifts by tens of percent within seconds (a fixed
pure-Python loop took anywhere from 0.13 s to 0.23 s), so every
op and every interpreter start runs between two short calibration loops and
its time is scaled by CALIBRATION_REF_S over their mean.  The run is pinned
to one CPU, so the loops time the CPU that the ops and the interpreter starts
run on.  Measured, unscaled times are printed above the result line.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json for the chosen trace mode.  Metric names,
units and the workload list come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# BLAS runs single-threaded, set before numpy loads.  A second BLAS thread
# runs on the other vCPU, whose contention the calibration loop cannot see;
# on 2 vCPUs that doubled the run-to-run spread of certify_sections.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import check_op  # noqa: E402
from layers import Tracer, group_times, pass_metrics  # noqa: E402
from workloads import ops_for  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 11
IMPORTTIME_REPEATS = 3
WARMUP_SCALE = 0.05
SUBPROCESS_TIMEOUT = 170
ACCOUNTED_MIN = 0.97
# Reference speed is where the calibration loop takes CALIBRATION_REF_S,
# close to its typical time under CPython 3.11 on a 2-vCPU x86-64 VM.
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.022

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import rieszforge.cli as cli\n"
    "cli.build_parser()\n"
    "print(repr(time.monotonic()))\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_cli():
    if not (SRC / "rieszforge" / "cli.py").is_file():
        fail(f"no package sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import rieszforge.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "rieszforge":
        fail(f"imported rieszforge from {cli.__file__}, not from {SRC}")
    return cli


# ------------------------------------------------------------- environment --

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pin_to_one_cpu() -> int:
    """Pin this process, and the interpreters it starts, to its lowest allowed CPU.

    The calibration loops then time the CPU that the ops and the interpreter
    starts run on.  Unpinned, a started interpreter often ran on the other
    vCPU, and scaling interpreter starts by the loops widened their spread.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_above_nproc": threads is not None and threads > nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ------------------------------------------------------------------- setup --

def setup_times(repeats: int) -> list[tuple[float, float]]:
    """(seconds, seconds at reference speed) from a fresh interpreter to a ready CLI.

    Each child imports rieszforge.cli, calls build_parser() and reports
    time.monotonic(); on Linux that clock is shared across processes, so the
    span runs from spawn to ready and excludes interpreter teardown.
    """
    code = SETUP_CODE.format(src=str(SRC))

    def spawn():
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT, cwd=ROOT, check=True)
        return float(proc.stdout.strip().splitlines()[-1]) - started

    out = []
    for _ in range(repeats):
        ready, seconds, ref_seconds = at_reference_speed(spawn)
        out.append((ready, ready * ref_seconds / seconds))
    return out


def importtime(repeats: int) -> tuple[float, float]:
    """Median (rieszforge import, scipy.spatial import) seconds from -X importtime."""
    code = SETUP_CODE.format(src=str(SRC))
    totals, spatial = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                              cwd=ROOT, check=True)
        total = spatial_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            us = int(cumulative)
            stripped = name.strip()
            if name[:2] != "  " and (stripped == "rieszforge" or stripped.startswith("rieszforge.")):
                total += us
            if stripped == "scipy.spatial":
                spatial_us = max(spatial_us, us)
        totals.append(total / 1e6)
        spatial.append(spatial_us / 1e6)
    return statistics.median(totals), statistics.median(spatial)


# ------------------------------------------------------------------ passes --

def calibrate() -> float:
    """Seconds for a fixed mix of interpreter arithmetic and object allocation.

    Those two kinds of work dominate the ops, and under contention they slow
    by different amounts, so the loop does both.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    table = {}
    for i in range(CALIBRATION_LOOPS // 3):
        table[(i, i + 1)] = complex(i)
    return time.perf_counter() - start


def at_reference_speed(run):
    """Call run(); return (its result, its seconds, those seconds at reference speed).

    The calibration loop runs just before and after, and the time is scaled by
    the loop's reference time over their mean, cancelling drifts in machine
    speed that last longer than the call.
    """
    before = calibrate()
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    after = calibrate()
    return result, seconds, seconds * CALIBRATION_REF_S / ((before + after) / 2)


@dataclass
class OpResult:
    code: int | None  # None when the op raised
    stdout: str
    stderr: str  # or the traceback of a crash
    seconds: float
    ref_seconds: float  # seconds at reference speed


def run_op(cli, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(list(op.argv)), err.getvalue()
        except Exception:  # a crash is a failed op; keep its traceback for the report
            return None, traceback.format_exc()

    (code, stderr), seconds, ref_seconds = at_reference_speed(call)
    return OpResult(code, out.getvalue(), stderr, seconds, ref_seconds)


def run_pass(cli, ops) -> list[OpResult]:
    return [run_op(cli, op) for op in ops]


def typical_pass(passes: list[list[OpResult]], field: str = "ref_seconds") -> float:
    """Sum over ops of each op's median time: a pass with slow bursts filtered per op."""
    return sum(statistics.median(getattr(p[i], field) for p in passes)
               for i in range(len(passes[0])))


class Ledger:
    """Keeps the first pass and compares every later pass with it, byte for byte.

    The output checks run in check(), once measuring is over, so their own
    allocations never reach the measured peak RSS.
    """

    def __init__(self, ops):
        self.ops = ops
        self.reference: list[OpResult] | None = None
        self.changed: list[set[int]] = []  # per pass, ops whose output differs from the first
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def record(self, results: list[OpResult]) -> None:
        if self.reference is None:
            self.reference = results
        self.changed.append({i for i, (got, want) in enumerate(zip(results, self.reference))
                             if (got.code, got.stdout) != (want.code, want.stdout)})

    def check(self) -> None:
        """Run the output checks on the first pass and count attempted and failed ops."""
        bad = set()
        for i, (op, r) in enumerate(zip(self.ops, self.reference)):
            problems = [f"crashed: {r.stderr}"] if r.code is None else \
                check_op(op, r.code, r.stdout)
            if problems:
                bad.add(i)
                self.problems += [f"{op.label[:160]}: {p}" for p in problems]
        for i in sorted(set().union(*self.changed)):
            self.problems.append(f"{self.ops[i].label[:160]}: output changed between passes")
        self.attempted = len(self.ops) * len(self.changed)
        self.failed = sum(len(bad | changed) for changed in self.changed)


def keep_going(walls: list[float], minimum: int, started: float, seconds: float) -> bool:
    if len(walls) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def measure(cli, workload: str, seed: int, seconds: float) -> tuple[dict, Ledger]:
    setup = setup_times(SETUP_REPEATS)
    run_pass(cli, ops_for(workload, seed, WARMUP_SCALE))
    ops = ops_for(workload, seed)
    ledger = Ledger(ops)
    passes: list[list[OpResult]] = []
    walls: list[float] = []
    started = time.perf_counter()
    while keep_going(walls, MIN_PASSES, started, seconds):
        results = run_pass(cli, ops)
        passes.append(results)
        walls.append(sum(r.seconds for r in results))
        ledger.record(results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ledger.check()
    metrics = {
        "wall_s": typical_pass(passes),
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    print(f"passes {len(walls)}, seconds: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"typical pass {typical_pass(passes, 'seconds'):.4f} s measured, "
          f"{metrics['wall_s']:.4f} s at reference speed")
    print("setup runs, seconds: " + " ".join(f"{raw:.4f}" for raw, _ in setup))
    return metrics, ledger


def measure_traced(cli, workload: str, seed: int, seconds: float) -> tuple[dict, Ledger]:
    import_s, spatial_s = importtime(IMPORTTIME_REPEATS)
    run_pass(cli, ops_for(workload, seed, WARMUP_SCALE))
    ops = ops_for(workload, seed)
    ledger = Ledger(ops)
    tracer = Tracer()
    plain: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    pairs: list[float] = []
    per_pass: list[dict] = []
    groups: list[dict] = []
    escaped: set[str] = set()
    started = time.perf_counter()
    while keep_going(pairs, MIN_TRACED_PASSES, started, seconds):
        plain.append(run_pass(cli, ops))
        ledger.record(plain[-1])
        tracer.reset()
        escaped.update(tracer.install())
        try:
            traced.append(run_pass(cli, ops))
        finally:
            tracer.uninstall()
        ledger.record(traced[-1])
        wall = sum(r.seconds for r in traced[-1])
        pairs.append(sum(r.seconds for r in plain[-1]) + wall)
        stdout_bytes = sum(len(r.stdout.encode()) for r in traced[-1])
        per_pass.append(pass_metrics(tracer, wall, stdout_bytes))
        groups.append(group_times(tracer.self_times()))

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith((".calls", ".ints", ".entries", ".trials", ".segments", ".eigensolves",
                          ".max_n", ".stdout_bytes")) and len(set(values)) != 1:
            ledger.problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = statistics.median(values)
    # shares are taken of the measured traced pass, like the self times;
    # the overhead compares both sides at reference speed
    metrics["trace.wall_s"] = typical_pass(traced, "seconds")
    metrics["trace.overhead_ratio"] = typical_pass(traced) / typical_pass(plain)
    metrics["setup.import_s"] = import_s
    metrics["setup.import.scipy_spatial_s"] = spatial_s

    median_groups = {g: statistics.median(gt.get(g, 0.0) for gt in groups) for g in groups[0]}
    dominant = max(median_groups, key=median_groups.get)
    with open(HERE / "predictions.json") as fh:
        predicted = json.load(fh)["dominant_layer"][workload]
    metrics["trace.dominant_match"] = float(dominant == predicted)
    ledger.problems += [f"calls through {where} escape their span" for where in sorted(escaped)]
    if metrics["trace.accounted_ratio"] < ACCOUNTED_MIN:
        ledger.problems.append(f"cli.main spans cover only {metrics['trace.accounted_ratio']:.3f} "
                               "of the traced wall time")
    ledger.check()

    wall = metrics["trace.wall_s"]
    print(f"passes {len(traced)} traced, {len(plain)} untraced; tracing overhead "
          f"{metrics['trace.overhead_ratio'] - 1:+.2%}")
    print(f"dominant layer: {dominant} ({median_groups[dominant] / wall:.1%} of traced wall_s); "
          f"predicted {predicted}")
    for g, v in sorted(median_groups.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  group {g:<34} {v:10.4f} s  {v / wall:6.1%}")
    return metrics, ledger


# -------------------------------------------------------------------- main --

def report(spec: dict, trace: int, metrics: dict, ledger: Ledger, env: dict) -> dict:
    table = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in metrics]
    if missing:
        fail(f"metrics missing from this run: {missing}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads_above_nproc"]:
        print(f"WARNING: BLAS uses {env['blas_threads']} threads on {env['nproc']} cores")
    wall = metrics.get("trace.wall_s")
    for m in table:
        value = metrics[m["name"]]
        layer_time = trace and m["unit"] == "s" and not m["name"].startswith(("setup.", "trace."))
        share = f"  {value / wall:6.1%} of traced wall_s" if layer_time else ""
        print(f"{m['name']:<36} {value:14.6f} {m['unit']}{share}")
    if not trace:
        print(f"{'fail_ratio':<36} {ledger.failed / ledger.attempted:14.6f} ratio")
    for problem in ledger.problems:
        print(f"CHECK FAILED {problem}")
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }


def run_all(spec: dict, args) -> dict:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {w['name']}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT + 4 * args.seconds)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {w['name']} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = value
    return combined


def main() -> None:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        result = run_all(spec, args)
    else:
        cli = import_cli()
        env = environment(args.seed)
        env["pinned_cpu"] = pin_to_one_cpu()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}", flush=True)
        if args.trace:
            metrics, ledger = measure_traced(cli, args.workload, args.seed, args.seconds)
        else:
            metrics, ledger = measure(cli, args.workload, args.seed, args.seconds)
        result = report(spec, args.trace, metrics, ledger, env)
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
