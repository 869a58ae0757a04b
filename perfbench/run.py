"""Outside-in benchmark for arcgate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed loop with a single
caller for about ``S`` seconds and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones named
in ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
taken from spans recorded by rebinding the library's public functions (see
``tracer.py``).  Lines above the result give each metric with its unit and
sample count, the failed ratio, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
COLD_SETUP = Path(__file__).resolve().with_name("cold_setup.py")


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cores):
            os.environ[var] = str(cores)
    return cores


def import_library():
    """Import ``arcgate`` from this checkout's ``src``, never from an installed copy."""
    package = SRC / "arcgate"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {package}")
    sys.path.insert(0, str(SRC))
    import arcgate
    if Path(arcgate.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported arcgate from {arcgate.__file__}, not {package}")
    return arcgate


def cold_setup(workload: str, work_dir: Path) -> dict:
    """One set-up in a fresh interpreter (see ``cold_setup.py``); returns its report."""
    out = subprocess.run([sys.executable, str(COLD_SETUP), workload, str(work_dir)],
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def environment(cores: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "arcgate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def attempt(workload, data, work_dir, op_seed, tracer=None):
    """One operation: returns (wall seconds, Outcome or None, problems)."""
    start = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            result = workload.run(data, op_seed)
            wall = time.perf_counter() - start
        outcome = workload.summarize(result, data, work_dir)
        return wall, outcome, workload.check(result, data, work_dir)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]


class Run:
    """Counts attempted and failed operations and keeps their problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def check(self, what: str, fn, *args) -> None:
        try:
            problems = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(what, problems)


def measure(workload, data, work_dir, seed, seconds, run, tracer=None):
    """Closed loop: operations back to back until the next would overrun ``seconds``.

    With a tracer, each operation runs untraced and then traced on the same
    seed; the two must produce identical fingerprints.
    """
    rng = random.Random(seed)
    walls, rates, traced_walls = [], [], []
    begin = time.perf_counter()
    while True:
        op_seed = rng.randrange(2 ** 31)
        lap = time.perf_counter()
        wall, outcome, problems = attempt(workload, data, work_dir, op_seed)
        run.record(f"op seed {op_seed}", problems)
        walls.append(wall)
        if outcome is not None:
            rates.append(outcome.items / wall)
        if tracer is not None:
            tracer.reset_keys()
            t_wall, t_outcome, t_problems = attempt(workload, data, work_dir, op_seed, tracer)
            if outcome is not None and t_outcome is not None \
                    and t_outcome.fingerprint != outcome.fingerprint:
                t_problems.append("traced output differs from untraced output")
            run.record(f"traced op seed {op_seed}", t_problems)
            traced_walls.append(t_wall)
        now = time.perf_counter()
        if now - begin + (now - lap) > seconds:
            return walls, rates, traced_walls


def layer_metrics(tracer, setup_tracer, walls, traced_walls) -> dict[str, float]:
    """Per-layer values: per traced operation, except ``idx.*`` which are per set-up."""
    n = len(traced_walls)
    values: dict[str, float] = {}
    for name, stats in tracer.stats.items():
        source, count = (setup_tracer.stats[name], 1) if name.startswith("idx.") else (stats, n)
        values[f"{name}.calls"] = source.calls / count
        values[f"{name}.self_s"] = source.self_s / count
    st = tracer.stats

    def ratio(num, den):
        return num / den if den else 0.0

    values["core.batch_eval.ns_per_elem"] = 1e9 * ratio(st["core.batch_eval"].total_s,
                                                        st["core.batch_eval"].work)
    values["core.batch_vjp.ns_per_elem"] = 1e9 * ratio(st["core.batch_vjp"].total_s,
                                                       st["core.batch_vjp"].work)
    values["engine.evaluate.rows_per_s"] = ratio(st["engine.evaluate"].work,
                                                 st["engine.evaluate"].total_s)
    values["fitter.fit.iters_per_s"] = ratio(st["fitter.fit"].work, st["fitter.fit"].total_s)
    values["cli.run.draws_per_s"] = ratio(st["cli.run"].work, st["cli.run"].total_s)
    values["engine.train.repeat_ratio"] = ratio(st["engine.train"].repeats,
                                                st["engine.train"].calls)
    values["fitter.kernel_calls_per_iter"] = ratio(st["core.batch_vjp"].within,
                                                   st["fitter.fit"].work)
    values["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_walls, walls)) - 1.0
    values["trace.inner_span_share"] = ratio(tracer.inner_self_s(), sum(traced_walls))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cores = pin_blas_threads()
    import_library()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    traced = args.trace == 1
    run = Run()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work_dir = Path(tmp)
        if traced:
            setup_tracer = Tracer()
            with setup_tracer:
                _paths, data = workloads.set_up(work_dir)
            run.check("fixture", workloads.fixture_check, data)
        else:
            # Cold set-ups run in child processes, so this process only
            # reads the IDX files back and its peak RSS is the workload's.
            reports = [cold_setup(workload.name, work_dir) for _ in range(SETUP_REPEATS)]
            setup_times = [r["seconds"] for r in reports]
            for r in reports:
                run.record("fixture", r["problems"])
            data = workloads.load(reports[-1]["paths"])
        workload.warm_up(data)

        tracer = Tracer() if traced else None
        walls, rates, traced_walls = measure(workload, data, work_dir, args.seed,
                                             args.seconds, run, tracer)
        if workload.reference_check is not None:
            run.check("reference", workload.reference_check, data, work_dir)

    if traced:
        values = layer_metrics(tracer, setup_tracer, walls, traced_walls)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        sys.exit(f"perfbench: computed metrics {sorted(values)} do not match BENCHMARK.json")

    series = {} if traced else {"setup_s": setup_times, "wall_s": walls, "items_per_s": rates}
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(walls)} closed loop, 1 caller; items are {workload.item}")
    for m in wanted:
        line = f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']:<10}"
        xs = series.get(m["name"])
        if xs:
            line += f" median of n={len(xs)}, min {min(xs):.6g}, max {max(xs):.6g}"
        elif traced:
            line += f" per traced op, n={len(traced_walls)}"
        print(line)
    print(f"  {'failed_ratio':<42} {run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(environment(cores), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
