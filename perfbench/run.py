#!/usr/bin/env python3
"""Benchmark of the dpgmarch CLI: backward Euler marches and a projection study.

Run from the root of a checkout:

    python3 perfbench/run.py --workload march-p0-many-steps --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload march-p0-many-steps --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --self-test

Each invocation of the workload's CLI command (`dpgmarch.cli.main`) runs in
this process and is repeated until --seconds would be exceeded, at least
twice.  Every invocation's CSV is checked against reference.json.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See README.md next to this file.
"""

import os

# Pinned before numpy is imported: one BLAS thread keeps CG's reductions in a
# fixed order, so its iteration count repeats exactly.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import (HOOKS, LAYER_METRICS, PROBES, ROOT_SPAN, Hook, ProbeError,  # noqa: E402
                     Tracer, layer_metrics, setup_and_steps)
from workloads import WORKLOADS, verify_csv  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
MIN_REPS = 2
EXACT_COUNTS = ("dofmap.n_dof", "assembly.S_nnz", "linalg.cg_iters")


@dataclass
class Rep:
    traced: bool
    wall: float
    problems: list
    tracer: Tracer

    @property
    def ok(self) -> bool:
        return not self.problems


def import_cli():
    package = SRC / "dpgmarch"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from dpgmarch import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported dpgmarch from {cli.__file__}, not {package}")
    return cli


def run_once(cli, workload, reference, traced, smoke=False, hooks=None) -> Rep:
    """One CLI invocation of the workload, timed and verified."""
    tag = workload.name + ("-smoke" if smoke else "")
    config_path = WORK_DIR / f"{tag}.json"
    csv_path = WORK_DIR / f"{tag}.csv"
    config_path.write_text(json.dumps({**workload.cli_config(smoke),
                                       "output_path": str(csv_path)}))
    csv_path.unlink(missing_ok=True)

    tracer = Tracer(hooks if hooks is not None else HOOKS if traced else PROBES)
    problems = []
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        try:
            code = tracer.call(ROOT_SPAN, cli.main,
                               [workload.command, "--config", str(config_path)])
        except Exception:  # a failed invocation is counted, and the run goes on
            problems.append("CLI raised:\n" + traceback.format_exc())
            code = None
    _, start, end, _ = tracer.spans[0]
    if code not in (0, None):
        problems.append(f"exit code {code}")
    if not problems:
        problems += verify_csv(csv_path, workload, reference, smoke)
    return Rep(traced=traced, wall=end - start, problems=problems, tracer=tracer)


def measure(cli, workload, reference, seconds, trace, seed) -> list:
    """Invocations until the next would end after `seconds`; at least MIN_REPS.
    A traced run alternates untraced and traced invocations, in an order the
    seed picks."""
    order = [False, True] if trace else [False]
    random.Random(seed).shuffle(order)
    reps = []
    start = time.perf_counter()
    while True:
        rep = run_once(cli, workload, reference, order[len(reps) % len(order)])
        reps.append(rep)
        for problem in rep.problems:
            print(f"FAILED invocation {len(reps)}: {problem}", file=sys.stderr)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + rep.wall > seconds:
            return reps


def end_to_end_metrics(reps, kind) -> dict:
    """setup_s is the median set-up over the run's invocations.  step_s takes
    the quickest step of each group of steps that repeat the same work within
    one invocation, the median of those over the groups, and the median of
    that over the invocations.  wall_s is printed but not reported; see
    README.md."""
    setups, quickest, steps = [], [], []
    for rep in reps:
        setup, groups = setup_and_steps(rep.tracer.spans, kind)
        setups.append(setup)
        quickest.append(statistics.median(min(group) for group in groups))
        steps += sum(groups, [])
    walls = [rep.wall for rep in reps]
    print(f"samples: {len(reps)} invocations, {len(steps)} steps; wall_s per invocation: "
          + " ".join(f"{wall:.3f}" for wall in walls))
    print(f"wall_s median {statistics.median(walls):.4f} s, least {min(walls):.4f} s; "
          f"step median {statistics.median(steps):.6f} s, "
          f"p95 {float(np.percentile(steps, 95)):.6f} s over {len(steps)} steps")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "step_s": (statistics.median(quickest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_hook_table(tracer):
    print(f"{'span':<22} {'hook':<42} {'status':<8} calls")
    for hook in tracer.hooks:
        status = "found" if tracer.found[hook] else "missing"
        print(f"{hook.span:<22} {hook.module + '.' + hook.attr:<42} {status:<8} "
              f"{tracer.calls.get(hook, 0)}")


def check_counts(per_rep, reference_counts):
    """Flag exact counts that differ between invocations or from the record."""
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_rep if name in m}
        if len(values) > 1:
            print(f"FLAG: {name} differs between invocations of the same code: {sorted(values)}")
        elif values and name in reference_counts and values != {reference_counts[name]}:
            print(f"FLAG: {name} = {values.pop()} differs from the recorded "
                  f"{reference_counts[name]}; expected only if the code changed")


def layer_report(reps, reference_counts) -> dict:
    traced = [rep for rep in reps if rep.traced]
    untraced = [rep for rep in reps if not rep.traced]
    if not traced:
        return {}
    print_hook_table(traced[-1].tracer)
    per_rep = [layer_metrics(rep.tracer) for rep in traced]
    check_counts(per_rep, reference_counts)
    metrics = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        if all(name in m for m in per_rep):
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(m[name] for m in per_rep), unit)
    wall = statistics.median(rep.wall for rep in traced)
    if untraced:
        overhead = wall - statistics.median(rep.wall for rep in untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
    print(f"share of the traced wall time ({wall:.4f} s):")
    for name, (value, unit) in metrics.items():
        if unit == "s":
            print(f"  {name:<26} {value:10.4f} s  {100.0 * value / wall:6.2f} %")
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
    }


def self_test(cli, reference) -> int:
    """Smoke runs of every workload at n=4, plus checks that the verifier
    rejects corrupted output and that a missing hook drops its metrics."""
    failures = []
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {entry["name"] for entry in benchmark[key]}
                for key in ("workloads", "end_to_end", "per_layer")}

    def check(passed, what):
        print(("PASS " if passed else "FAIL ") + what)
        if not passed:
            failures.append(what)

    for workload in WORKLOADS.values():
        for traced in (False, True):
            rep = run_once(cli, workload, reference, traced, smoke=True)
            label = f"{workload.name} smoke, {'traced' if traced else 'untraced'}"
            check(rep.ok, f"{label}: exits 0 and verifies {rep.problems}")
            if traced:
                check(set(layer_metrics(rep.tracer)) == set(LAYER_METRICS),
                      f"{label}: every hook found, every layer metric reported")
            else:
                metrics = end_to_end_metrics([rep], workload.kind)
                check(set(metrics) == declared["end_to_end"],
                      f"{label}: every end-to-end metric reported")

        source = WORK_DIR / f"{workload.name}-smoke.csv"
        corruptions = [("err_L2", lambda v: repr(float(v) * (1.0 + 1e-6)))]
        if workload.kind == "projection":
            corruptions.append(("eoc_H1", lambda v: "1.5"))
        for column, corrupt in corruptions:
            with open(source, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
            rows[-1][column] = corrupt(rows[-1][column])
            corrupted = WORK_DIR / f"{workload.name}-corrupt.csv"
            with open(corrupted, "w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            check(bool(verify_csv(corrupted, workload, reference, smoke=True)),
                  f"{workload.name}: verifier rejects a corrupted {column}")

    renamed = tuple(Hook(h.module, h.attr + "_renamed", h.span) if h.span == "linalg.cg" else h
                    for h in HOOKS)
    rep = run_once(cli, WORKLOADS["march-p1-aniso"], reference, True, smoke=True, hooks=renamed)
    metrics = layer_metrics(rep.tracer)
    print_hook_table(rep.tracer)
    check(rep.ok and "linalg.cg_s" not in metrics and "linalg.cg_iters" not in metrics
          and "timestep.step_self_s" not in metrics and "assembly.load_s" in metrics,
          "a missing hook drops its metrics, reports no 0 for them, and the run completes")

    check(declared["per_layer"] == set(LAYER_METRICS) | {"trace.overhead_s"}
          and declared["workloads"] == set(WORKLOADS),
          "BENCHMARK.json names the workloads and per-layer metrics this harness reports")
    print(f"self-test: {len(failures)} failed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-run every workload at n=4 and check the verifier")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")

    cli = import_cli()
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(cli, reference)

    workload = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args)}))
    reps = measure(cli, workload, reference, args.seconds, args.trace, args.seed)
    good = [rep for rep in reps if rep.ok]
    metrics = {}
    if good:
        try:
            if args.trace:
                counts = reference["workloads"][workload.name]["counts"]
                metrics = layer_report(good, counts)
            else:
                metrics = end_to_end_metrics(good, workload.kind)
        except ProbeError as exc:
            print(f"perfbench: {exc}; the probes no longer match the code", file=sys.stderr)
            return 1
    failed = len(reps) - len(good)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
