"""Benchmark for the pseudomode package: one command, every metric.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N]
                              [--seconds S] [--trace 0|1]

Run from anywhere; the package is loaded from the src directory next to
this one. For each workload it computes the oracle (outside any timed
region), times set-up in fresh interpreters, repeats the workload in a
worker process for --seconds, checks every concurrence sample of every
repetition against the oracle, and prints one line per metric. Timings
are reported in reference seconds, scaled by a machine-speed probe (see
probe.py); wall times are printed alongside. The last
line of standard output is a JSON object: `correct`, `attempted` and
`failed` count cells (a cell is wrong when it failed, a sample is off the
oracle by more than 1e-9, or its dark intervals differ), `metrics` holds
the end-to-end metrics with --trace 0 and the per-layer metrics of a
traced run with --trace 1. With --workload all, metric names carry the
workload as a prefix.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import oracle
import outputs
import workloads
from probe import probe, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
# every child caps its BLAS threads at the cores this process may use
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up runs before and after the workload, because machine speed can
# drift over tens of seconds; one discarded run first compiles bytecode
SETUP_RUNS = 4
RUN_LIMIT_S = 170

# zero on the API workloads, which never enter the CLI, so printed but
# kept out of the JSON, where a time that never changes is not a measurement
PRINT_ONLY = ("cli.main_s", "cli.self_s")
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_builds": "count",
                   "_frac": "ratio", "_share": "ratio", "_bytes": "B",
                   "_gflop_computed": "GFLOP", "_gb_computed": "GB",
                   "substeps": "count", "_err_max": "abs"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": NPROC}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, str(NPROC)))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout, or when this process
    is stopped, kill the whole group and wait for it."""
    proc = subprocess.Popen(cmd, env=child_env(), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:  # timeout, or this process was told to stop
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker_cmd(name: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--src", str(SRC), *extra]


def setup_times(name: str, seed: int, runs: int, deadline: float
                ) -> tuple[list[float], list[float]]:
    """Wall times from spawn to exit of fresh interpreters that import
    pseudomode and run a one-cell, one-interval sweep of the workload,
    and the machine-speed probes before, between and after them."""
    times, probes = [], [probe()]
    for _ in range(runs):
        t0 = perf_counter()
        proc = run_child(worker_cmd(name, seed, "--setup"),
                         deadline - perf_counter())
        times.append(perf_counter() - t0)
        probes.append(probe())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return times, probes


def check(w: workloads.Workload, ref: dict, work: Path, stored) -> dict:
    """Compare every stored output against the oracle, weighting each by
    how many repetitions produced it."""
    times = w.times()
    ref_iv = {a2: outputs.format_intervals(oracle.dark_intervals(times, r))
              for a2, r in ref.items()}
    attempted = failed = 0
    err_max = 0.0
    x_cells = 0
    for name, count in stored:
        cells = outputs.load(work / name)
        if [c.alpha2 for c in cells] != list(w.alpha2):
            raise RuntimeError(f"{w.name}: output cells do not match the grid")
        for cell in cells:
            err = oracle.max_error(cell.conc, ref[cell.alpha2])
            wrong = (cell.failed or not err <= oracle.TOLERANCE
                     or cell.intervals != ref_iv[cell.alpha2])
            attempted += count
            failed += count * wrong
            x_cells += count * (cell.path == "x_state")
            err_max = max(err_max, err)
    return {"attempted": attempted, "failed": failed, "err_max": err_max,
            "x_path_share": x_cells / attempted}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    w = workloads.make(name, seed)
    ref = oracle.reference(w)
    metrics: dict[str, float] = {}
    setup = []
    if not trace:
        walls, probes = setup_times(name, seed, SETUP_RUNS + 1, deadline)
        setup = reference_seconds(walls, probes)[1:]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        spans = OUT / f"spans_{name}_seed{seed}.jsonl"
        extra = ["--seconds", str(seconds), "--trace", str(int(trace)),
                 "--work", str(work)] + (["--spans", str(spans)] if trace else [])
        proc = run_child(worker_cmd(name, seed, *extra),
                         deadline - perf_counter())
        if proc.returncode != 0:
            raise RuntimeError(f"{name}: worker failed:\n{proc.stderr}")
        summary = json.loads((work / "summary.json").read_text())
        verdict = check(w, ref, work, summary["outputs"])
    if trace:
        metrics.update(summary["layers"])
        metrics["entanglement.x_path_share"] = verdict["x_path_share"]
        metrics["entanglement.conc_err_max"] = verdict["err_max"]
        reps = len(summary["traced_s"])
    else:
        setup += reference_seconds(*setup_times(name, seed, SETUP_RUNS,
                                                deadline))
        summary["solve_s"] = reference_seconds(summary["solve_wall_s"],
                                               summary["probe_s"])
        metrics["setup_s"] = statistics.median(setup)
        metrics["solve_s"] = statistics.median(summary["solve_s"])
        metrics["peak_rss_mb"] = summary["peak_rss_mb"]
        reps = len(summary["solve_s"])
    return {"metrics": metrics, "verdict": verdict, "reps": reps,
            "summary": summary, "setup": setup,
            "wall_s": perf_counter() - start}


def report(name: str, res: dict, trace: bool) -> None:
    v = res["verdict"]
    print(f"== {name}: {res['reps']} repetitions, run wall "
          f"{res['wall_s']:.1f} s")
    for key, value in res["metrics"].items():
        print(f"{name} {key} = {value:.6g} {unit_of(key)}")
    if not trace:
        summary = res["summary"]
        for label, values in (("solve_s", summary["solve_s"]),
                              ("solve_wall_s", summary["solve_wall_s"]),
                              ("probe_s", summary["probe_s"]),
                              ("setup_s", res["setup"])):
            print(f"{name} {label} samples (s): "
                  + " ".join(f"{x:.4f}" for x in values))
        print(f"{name} solve_wall_s median = "
              f"{statistics.median(summary['solve_wall_s']):.6g} s")
    print(f"{name} error_frac = {v['failed'] / v['attempted']:.6g} ratio "
          f"({v['failed']} of {v['attempted']} cells wrong; largest "
          f"concurrence error {v['err_max']:.3g})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Run pseudomode workloads and check them against an "
                    "independent oracle.")
    p.add_argument("--workload", default="all",
                   choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child can stop the workers
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "pseudomode" / "__init__.py").is_file():
        print(f"error: no pseudomode package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_facts()))
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    trace = bool(args.trace)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name], trace)

    single = len(names) == 1
    metrics = {}
    for name, res in results.items():
        for key, value in res["metrics"].items():
            if key in PRINT_ONLY:
                continue
            metrics[key if single else f"{name}.{key}"] = {
                "value": value, "unit": unit_of(key)}
    attempted = sum(r["verdict"]["attempted"] for r in results.values())
    failed = sum(r["verdict"]["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
