"""Tests of the benchmark itself: oracle, checker, span arithmetic, counts.

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import outputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pseudomode import cli, dynamics, independent_decay_concurrence, sweep  # noqa: E402


@pytest.mark.parametrize("alpha2", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("gamma_s", [0.05, 0.3])
def test_oracle_matches_independent_decay_without_coupling(alpha2, gamma_s):
    gen = oracle.generator(gamma_s, omega=0.0)
    dt, n = 0.25, 200
    conc = oracle.concurrence(
        oracle.qubit_states(oracle.psi_state(alpha2), gen, dt, n))
    expected = independent_decay_concurrence(alpha2, gamma_s,
                                             dt * np.arange(n + 1))
    assert np.max(np.abs(conc - expected)) <= 1e-12


def test_oracle_dark_intervals():
    t = np.arange(6.0)
    assert oracle.dark_intervals(t, [1, 0, 0, 1, 0, 0]) == [(1.0, 3.0),
                                                          (4.0, None)]
    assert oracle.dark_intervals(t, np.ones(6)) == []


def _small_workload() -> workloads.Workload:
    return dataclasses.replace(workloads.grid_sweep(0), alpha2=(0.3, 0.7),
                               t_max=30.0, n_steps=60)


def _check(w, ref, cells, tmp_path):
    outputs.save(cells, tmp_path / "out0.npz")
    return run.check(w, ref, tmp_path, [["out0.npz", 2]])


def test_checker_counts_perturbed_series_as_wrong(tmp_path):
    w = _small_workload()
    ref = oracle.reference(w)
    times = w.times()

    def exact():
        return [outputs.Cell(a2, "x_state", False,
                             outputs.format_intervals(
                                 oracle.dark_intervals(times, ref[a2])),
                             ref[a2].copy())
                for a2 in w.alpha2]

    assert oracle.dark_intervals(times, ref[0.3])  # alpha2 < 1/2 dies
    verdict = _check(w, ref, exact(), tmp_path)
    assert (verdict["attempted"], verdict["failed"]) == (4, 0)

    cells = exact()
    cells[1].conc[17] += 2e-9
    verdict = _check(w, ref, cells, tmp_path)
    assert (verdict["attempted"], verdict["failed"]) == (4, 2)
    assert verdict["err_max"] == pytest.approx(2e-9, rel=1e-6)

    cells = exact()
    cells[0].intervals = "none"
    assert _check(w, ref, cells, tmp_path)["failed"] == 2

    cells = exact()
    cells[0].failed = True
    assert _check(w, ref, cells, tmp_path)["failed"] == 2


def test_self_times_on_synthetic_spans():
    recs = [[0, None, "root", 0.0, 10.0],
            [1, 0, "a", 1.0, 4.0],
            [2, 1, "b", 2.0, 3.0],
            [3, 0, "c", 5.0, 9.0],
            [4, 3, "d", 5.0, 7.0],
            [5, 3, "d", 6.0, 8.0]]  # overlaps its sibling: union is 5..8
    assert spans.self_times(recs) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert spans.by_name(recs)["d"] == (2, 4.0, 4.0)
    # properly nested spans: self times add up to the root's duration
    assert sum(spans.self_times(recs[:4])) == 10.0


def test_reference_seconds_scale_by_the_adjacent_probes():
    ref = probe.REFERENCE_S
    scaled = probe.reference_seconds([1.0, 3.0], [ref, 3 * ref, ref])
    assert scaled == pytest.approx([0.5, 1.5])
    with pytest.raises(ValueError):
        probe.reference_seconds([1.0], [ref])
    assert probe.probe(rounds=10) > 0.0


def test_tracer_patches_and_restores():
    module = types.SimpleNamespace(f=lambda x: 2 * x)
    original = module.f
    tracer = spans.Tracer()
    tracer.patch(module, "f", "f",
                 lambda counts, args, result: counts.update(n=result))
    with tracer.span("root"):
        assert module.f(3) == 6
    tracer.restore()
    assert module.f is original
    assert [rec[spans.NAME] for rec in tracer.spans] == ["root", "f"]
    assert tracer.spans[1][spans.PARENT] == 0
    assert tracer.counts["n"] == 6


def test_seeds_keep_sizes_ranges_and_horizons():
    assert workloads.grid_sweep(0).alpha2 == tuple(i / 20 for i in range(1, 20))
    assert workloads.dense_cli(0).cli_argv("rows.csv") == [
        "--state", "psi", "--alpha2-grid", "0.1:0.9:3", "--gamma-s", "0.2",
        "--rate-unit", "gamma0", "--t-max", "10.0", "--steps", "10000",
        "--out", "rows.csv"]
    assert workloads.long_horizon(0).alpha2 == (0.1, 0.5, 0.9)
    for name in workloads.WORKLOADS:
        base = workloads.make(name, 0)
        for seed in (1, 2, 99):
            w = workloads.make(name, seed)
            assert w == workloads.make(name, seed)
            assert w.alpha2 != base.alpha2
            assert len(w.alpha2) == len(base.alpha2)
            assert min(base.alpha2) <= min(w.alpha2)
            assert max(w.alpha2) <= max(base.alpha2)
            assert dataclasses.replace(w, alpha2=base.alpha2) == base
            if w.via_cli:
                w.cli_argv("rows.csv")  # still a linspace the CLI can take


@pytest.mark.parametrize("name, substeps", [
    ("grid_sweep", 285_000), ("dense_cli", 30_000), ("long_horizon", 450_000)])
def test_seed0_counts_repeat_exactly(name, substeps, tmp_path):
    w = workloads.make(name, 0)
    originals = [getattr(m, a) for m, a in ((sweep, "evolve"), (cli, "main"),
                                            (dynamics, "rk4_step_matrix"))]
    runner = worker.Runner(w, tmp_path)
    tracer = spans.Tracer()
    worker._install(tracer)
    try:
        solve = (runner.cli_in_process if w.via_cli else runner.api)(tracer)
    finally:
        tracer.restore()
    assert [getattr(m, a) for m, a in ((sweep, "evolve"), (cli, "main"),
                                       (dynamics, "rk4_step_matrix"))] == originals
    layers = worker.layer_metrics(tracer, solve, 144)
    assert layers["dynamics.substeps"] == substeps
    assert layers["dynamics.evolve_calls"] == len(w.alpha2)
    assert layers["dynamics.matvec_gb_computed"] == substeps * 331_776 / 1e9
    # the root and the self times of the spans inside it account for solve
    root = tracer.spans[0]
    assert root[spans.NAME] == "solve"
    assert root[spans.END] - root[spans.START] == pytest.approx(solve, rel=1e-3)
    inside = [own for rec, own in zip(tracer.spans,
                                      spans.self_times(tracer.spans))
              if rec[spans.NAME] != "sweep.esd" or w.via_cli]
    assert sum(inside) == pytest.approx(root[spans.END] - root[spans.START],
                                        rel=1e-9)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "grid_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
