"""Runs one workload in a fresh interpreter; started by run.py.

run.py sets PYTHONPATH to the checkout's src and caps BLAS threads. With
--setup the worker imports pseudomode, runs a one-cell, one-interval sweep
of the workload and exits. Otherwise it repeats the workload until
--seconds have passed (at least once), saves each distinct output once,
and writes summary.json to --work. Untraced repetitions are bracketed by
machine-speed probes (see probe.py). With --trace 1 every repetition is a
pair, one untraced and one traced run in this process, so the two differ
only in the tracing; the CLI workload then runs through cli.main(argv).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import outputs
import workloads
from probe import probe
from spans import Tracer, by_name

CLI_TIMEOUT_S = 150


def _count_substeps(counts, args, trajectory) -> None:
    counts["substeps"] += trajectory.diagnostics.step_count


def _count_csv_bytes(counts, args, result) -> None:
    counts["csv_bytes"] += os.path.getsize(args[1])


def _install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from pseudomode import cli, dynamics, sweep
    tracer.patch(sweep, "evolve", "dynamics.evolve", _count_substeps)
    tracer.patch(dynamics, "liouvillian_matrix", "dynamics.liouvillian")
    tracer.patch(dynamics, "rk4_step_matrix", "dynamics.propagator")
    tracer.patch(dynamics, "partial_trace_cavity",
                 "entanglement.partial_trace")
    tracer.patch(sweep, "x_form_deviation", "entanglement.x_check")
    tracer.patch(sweep, "concurrence_x_state", "entanglement.x_state")
    tracer.patch(sweep, "concurrence_general", "entanglement.general")
    for module in (sweep, cli):
        tracer.patch(module, "run_sweep", "sweep.run")
        tracer.patch(module, "write_rows_csv", "sweep.csv", _count_csv_bytes)
        tracer.patch(module, "write_grid_csv", "sweep.csv", _count_csv_bytes)
        tracer.patch(module, "detect_esd_intervals", "sweep.esd")
    tracer.patch(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer, solve_s: float, vec_len: int) -> dict:
    """Per-layer counts and times of one traced repetition."""
    totals = by_name(tracer.spans)

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    substeps = tracer.counts["substeps"]
    evolve, liouv, prop = (get("dynamics.evolve"), get("dynamics.liouvillian"),
                           get("dynamics.propagator"))
    ptrace, xcheck = get("entanglement.partial_trace"), get("entanglement.x_check")
    xstate, general = get("entanglement.x_state"), get("entanglement.general")
    run, csv, esd, main = (get("sweep.run"), get("sweep.csv"),
                           get("sweep.esd"), get("cli.main"))
    return {
        "dynamics.substeps": substeps,
        "dynamics.evolve_calls": evolve[0],
        "dynamics.evolve_s": evolve[1],
        "dynamics.evolve_self_s": evolve[2],
        # one substep is one dense complex matvec: 8 flops and 16 bytes of
        # matrix per entry
        "dynamics.matvec_gflop_computed": substeps * 8 * vec_len ** 2 / 1e9,
        "dynamics.matvec_gb_computed": substeps * 16 * vec_len ** 2 / 1e9,
        "dynamics.liouvillian_builds": liouv[0],
        "dynamics.liouvillian_s": liouv[1],
        "dynamics.propagator_builds": prop[0],
        "dynamics.propagator_s": prop[1],
        "entanglement.partial_trace_calls": ptrace[0],
        "entanglement.partial_trace_s": ptrace[1],
        "entanglement.x_check_calls": xcheck[0],
        "entanglement.x_check_s": xcheck[1],
        "entanglement.x_state_calls": xstate[0],
        "entanglement.x_state_s": xstate[1],
        "entanglement.general_calls": general[0],
        "entanglement.general_s": general[1],
        "sweep.run_s": run[1],
        "sweep.self_s": run[2],
        "sweep.csv_s": csv[1],
        "sweep.csv_bytes": tracer.counts["csv_bytes"],
        "sweep.esd_s": esd[1],
        "cli.main_s": main[1],
        "cli.self_s": main[2],
        "trace.solve_s": solve_s,
        "trace.unattributed_frac": get("solve")[2] / solve_s,
    }


class Runner:
    """Repetitions of one workload, with their outputs deduplicated."""

    def __init__(self, w: workloads.Workload, work: Path):
        self.w = w
        self.work = work
        self.outputs: dict[str, list] = {}  # digest -> [file, count]
        self.peak_rss_kb = 0

    def keep(self, cells) -> None:
        key = outputs.digest(cells)
        if key not in self.outputs:
            name = f"out{len(self.outputs)}.npz"
            outputs.save(cells, self.work / name)
            self.outputs[key] = [name, 0]
        self.outputs[key][1] += 1

    def api(self, tracer: Tracer | None = None) -> float:
        from pseudomode import sweep
        w = self.w
        root = tracer.span("solve") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with root:
            result = sweep.run_sweep(sweep.SweepConfig(**w.sweep_kwargs()))
            writer = (sweep.write_grid_csv if w.output == "grid"
                      else sweep.write_rows_csv)
            with contextlib.suppress(ValueError):  # failed cells show below
                writer(result, str(self.work / "out.csv"))
        elapsed = perf_counter() - t0
        self.keep(outputs.from_sweep(result, sweep.detect_esd_intervals))
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return elapsed

    def cli_process(self) -> float:
        csv = self.work / "rows.csv"
        cmd = [sys.executable, "-m", "pseudomode.cli",
               *self.w.cli_argv(str(csv))]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.work, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - t0
        self.keep(outputs.from_cli(self.w.alpha2, proc.stdout, csv))
        csv.unlink(missing_ok=True)
        self.peak_rss_kb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
        return elapsed

    def cli_in_process(self, tracer: Tracer | None = None) -> float:
        from pseudomode import cli
        csv = self.work / "rows.csv"
        argv = self.w.cli_argv(str(csv))
        buf = io.StringIO()
        root = tracer.span("solve") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), root:
            cli.main(argv)
        elapsed = perf_counter() - t0
        self.keep(outputs.from_cli(self.w.alpha2, buf.getvalue(), csv))
        csv.unlink(missing_ok=True)
        return elapsed


def _repeat(seconds: float, rep) -> None:
    """Call rep() until another call would likely pass the deadline."""
    start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        rep()
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def setup(w: workloads.Workload) -> int:
    import pseudomode
    kwargs = w.sweep_kwargs() | dict(alpha2_grid=w.alpha2[:1], n_steps=1,
                                     t_max=w.t_max / w.n_steps)
    return 1 if pseudomode.run_sweep(pseudomode.SweepConfig(**kwargs)).failed else 0


def measure(w: workloads.Workload, work: Path, seconds: float, trace: bool,
            spans_path: Path | None) -> dict:
    runner = Runner(w, work)
    summary: dict = {}
    if not trace:
        solve, probes = [], [probe()]
        rep = runner.cli_process if w.via_cli else runner.api

        def timed():
            solve.append(rep())
            probes.append(probe())

        _repeat(seconds, timed)
        summary["solve_wall_s"] = solve
        summary["probe_s"] = probes
        summary["peak_rss_mb"] = runner.peak_rss_kb / 1024
    else:
        rep = runner.cli_in_process if w.via_cli else runner.api
        untraced, traced, layers = [], [], []
        tracer = None

        def traced_rep():
            nonlocal tracer
            tracer = Tracer()
            _install(tracer)
            try:
                traced.append(rep(tracer))
            finally:
                tracer.restore()
            layers.append(layer_metrics(tracer, traced[-1],
                                        (4 * workloads.N_FOCK) ** 2))

        def pair():
            # alternate which side goes first, so drift in machine speed
            # does not bias the overhead
            if len(traced) % 2:
                traced_rep()
                untraced.append(rep())
            else:
                untraced.append(rep())
                traced_rep()

        _repeat(seconds, pair)
        summary["layers"] = {k: statistics.median(m[k] for m in layers)
                             for k in layers[0]}
        summary["layers"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        summary["untraced_s"] = untraced
        summary["traced_s"] = traced
        if spans_path is not None:
            tracer.write(spans_path)
    summary["outputs"] = list(runner.outputs.values())
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", type=Path, required=True,
                   help="the checkout's src directory pseudomode must load from")
    p.add_argument("--setup", action="store_true")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path)
    p.add_argument("--spans", type=Path)
    args = p.parse_args()
    w = workloads.make(args.workload, args.seed)

    import pseudomode
    loaded = Path(pseudomode.__file__).resolve()
    if not loaded.is_relative_to(args.src.resolve()):
        print(f"pseudomode loaded from {loaded}, not from {args.src}",
              file=sys.stderr)
        return 2
    if args.setup:
        return setup(w)
    summary = measure(w, args.work, args.seconds, bool(args.trace), args.spans)
    (args.work / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
