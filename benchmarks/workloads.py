"""Workload definitions: each seed turns into one concrete sweep.

Seed 0 reproduces the fixed grids the workloads were designed around. Any
other seed draws the same number of alpha2 values from the same range with
the same horizon and rates, so a change cannot be tuned to particular grid
values. The package only ever receives the generated config or argv.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Paper parameters in gamma0 units; the package defaults must match them,
# and the oracle uses these values, not the package's.
OMEGA = 0.2
GAMMA_CAVITY = math.sqrt(0.05)
STEP_SIZE = 1e-3
N_FOCK = 3


@dataclass(frozen=True)
class Workload:
    """One generated sweep: psi family, a single gamma_s (gamma0 units)."""

    name: str
    alpha2: tuple[float, ...]
    gamma_s: float
    t_max: float
    n_steps: int
    output: str  # "grid" or "rows" CSV
    via_cli: bool

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    def sweep_kwargs(self) -> dict:
        """Keyword arguments for pseudomode.SweepConfig."""
        return dict(family="psi", alpha2_grid=self.alpha2,
                    gamma_s_list=(self.gamma_s,), rate_unit="gamma0",
                    omega=OMEGA, gamma_cavity=GAMMA_CAVITY, n_fock=N_FOCK,
                    t_max=self.t_max, n_steps=self.n_steps,
                    step_size=STEP_SIZE)

    def cli_argv(self, out: str) -> list[str]:
        """Arguments for the pseudomode CLI; alpha2 must be a linspace."""
        lo, hi, n = self.alpha2[0], self.alpha2[-1], len(self.alpha2)
        if not np.array_equal(np.linspace(lo, hi, n), self.alpha2):
            raise ValueError("CLI workloads need an evenly spaced alpha2 grid")
        return ["--state", "psi", "--alpha2-grid", f"{lo!r}:{hi!r}:{n}",
                "--gamma-s", repr(self.gamma_s), "--rate-unit", "gamma0",
                "--t-max", repr(self.t_max), "--steps", str(self.n_steps),
                "--out", out]


def _draw(rng: np.random.Generator, n: int, lo: float, hi: float
          ) -> tuple[float, ...]:
    return tuple(float(x) for x in np.sort(rng.uniform(lo, hi, n)))


def grid_sweep(seed: int) -> Workload:
    """100 RK4 substeps per sample over 19 independent cells: propagation
    and cross-cell batching dominate."""
    if seed == 0:
        alpha2 = tuple(i / 20 for i in range(1, 20))
    else:
        alpha2 = _draw(np.random.default_rng([seed, 1]), 19, 0.05, 0.95)
    return Workload(
        "grid_sweep", alpha2, gamma_s=0.02, t_max=15.0, n_steps=150,
        output="grid", via_cli=False)


def dense_cli(seed: int) -> Workload:
    """One substep per sample through the CLI: the per-sample checks,
    partial trace, concurrence and a 4.8 MB rows CSV carry the load."""
    if seed == 0:
        lo, hi = 0.1, 0.9
    else:
        # the CLI takes only lo:hi:n, so draw the two ends of the linspace
        lo, hi = _draw(np.random.default_rng([seed, 2]), 2, 0.1, 0.9)
    alpha2 = tuple(float(x) for x in np.linspace(lo, hi, 3))
    return Workload(
        "dense_cli", alpha2, gamma_s=0.2, t_max=10.0, n_steps=10000,
        output="rows", via_cli=True)


def long_horizon(seed: int) -> Workload:
    """The concurrence decays to the noise floor, so every cell takes the
    general concurrence path; too few cells for batching to help."""
    if seed == 0:
        alpha2 = (0.1, 0.5, 0.9)
    else:
        alpha2 = _draw(np.random.default_rng([seed, 3]), 3, 0.1, 0.9)
    return Workload(
        "long_horizon", alpha2, gamma_s=0.02, t_max=150.0, n_steps=1500,
        output="rows", via_cli=False)


WORKLOADS = {f.__name__: f for f in (grid_sweep, dense_cli, long_horizon)}


def make(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return WORKLOADS[name](seed)
