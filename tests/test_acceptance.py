"""Acceptance suite: one numbered test per headline behavior.

Run with -v to get one pass/fail line per criterion. Each regime claim is
checked against an independent oracle or a law derived from the
Hamiltonian, as tightly as that oracle or law allows, and a failure message
names the measured value:

- criterion 4 (gamma_s = omega/10): the late residue is the subradiant
  state, which the mode never reaches, so it decays at gamma_s;
- criterion 5 (gamma_s = 10 omega): the dynamics stay within
  (omega/gamma_s)^2 of the independent-reservoir closed form;
- criterion 7 (phi family): the concurrence is 2|c_A c_B| of the
  closed-form one-excitation amplitudes (tests/conftest.py), and its dips
  below 1e-6 are nodes of c_A or c_B, not dark periods.
"""

import math

import numpy as np
import pytest

from conftest import one_excitation_amplitudes, random_x_state
from pseudomode import (
    InitialStateSpec,
    SweepConfig,
    SystemParams,
    build_space,
    concurrence_general,
    concurrence_x_state,
    detect_esd_intervals,
    evolve,
    independent_decay_concurrence,
    make_initial,
    run_sweep,
    x_form_deviation,
)

SPACE = build_space(3)

# exact decimal grids; i/20 keeps alpha2 == 0.5 binary-exact
ALPHA_19 = tuple(i / 20 for i in range(1, 20))
ALPHA_9 = tuple(i / 10 for i in range(1, 10))


def c_series(traj) -> np.ndarray:
    return np.array([concurrence_x_state(rho).c for rho in traj.reduced])


def evolve_family(params, family, alpha2, times, theta=0.0, r=1.0,
                  store_full=False):
    state = make_initial(InitialStateSpec(family, alpha2, theta, r), SPACE)
    return evolve(state, SPACE, params, times, store_full=store_full)


@pytest.fixture(scope="module")
def low_emission_sweep():
    cfg = SweepConfig(family="psi", alpha2_grid=ALPHA_19,
                      gamma_s_list=(0.02,), t_max=150.0, n_steps=1500)
    result = run_sweep(cfg)
    assert not result.failed
    return result


@pytest.fixture(scope="module")
def high_emission_sweep():
    cfg = SweepConfig(family="psi", alpha2_grid=ALPHA_19,
                      gamma_s_list=(2.0,), t_max=30.0, n_steps=3000)
    result = run_sweep(cfg)
    assert not result.failed
    return result


@pytest.fixture(scope="module")
def mid_emission_sweep():
    cfg = SweepConfig(family="psi", alpha2_grid=ALPHA_9,
                      gamma_s_list=(0.2,), t_max=160.0, n_steps=1600)
    result = run_sweep(cfg)
    assert not result.failed
    return result


@pytest.fixture(scope="module")
def oracle_runs():
    # cavity decoupled; both qubits damped at the reference rate
    params = SystemParams(omega=0.0, gamma_cavity=0.0,
                          gamma_a=1.0, gamma_b=1.0)
    times = np.linspace(0.0, 5.0, 200)
    runs = {a2: evolve_family(params, "psi", a2, times)
            for a2 in (0.2, 0.4, 0.5, 0.6, 0.8)}
    return runs, times


@pytest.fixture(scope="module")
def unitary_run():
    params = SystemParams(omega=0.2, gamma_cavity=0.0,
                          gamma_a=0.0, gamma_b=0.0)
    times = np.linspace(0.0, 100.0, 201)
    return evolve_family(params, "psi", 0.3, times, store_full=True)


@pytest.fixture(scope="module")
def no_emission_runs():
    params = SystemParams.symmetric(0.0)
    times = np.linspace(0.0, 50.0, 1001)
    runs = {a2: evolve_family(params, "psi", a2, times) for a2 in (0.1, 0.6)}
    return runs, times


@pytest.fixture(scope="module")
def one_excitation_runs():
    times = np.linspace(0.0, 50.0, 1001)
    runs = {}
    for gs in (0.0, 0.02, 0.2):
        params = SystemParams.symmetric(gs)
        for a2 in (0.25, 0.5, 0.75):
            runs[(gs, a2)] = evolve_family(params, "phi", a2, times)
    return runs, times


@pytest.fixture(scope="module")
def one_excitation_fast_decay_runs():
    params = SystemParams.symmetric(0.8)
    times = np.linspace(0.0, 50.0, 1001)
    runs = {a2: evolve_family(params, "phi", a2, times)
            for a2 in (0.25, 0.5, 0.75)}
    return runs, times


@pytest.fixture(scope="module")
def theta_runs():
    params = SystemParams.symmetric(0.02)
    times = np.linspace(0.0, 20.0, 201)
    return {th: evolve_family(params, "psi", 0.3, times, theta=th)
            for th in (0.0, math.pi / 2, math.pi)}


@pytest.fixture(scope="module")
def werner_runs():
    params = SystemParams.symmetric(0.02)
    times = np.linspace(0.0, 15.0, 1501)
    runs = {r: evolve_family(params, "werner_psi", 0.3, times, r=r)
            for r in (1.0, 0.9, 0.8)}
    return runs, times


@pytest.fixture(scope="module")
def halving_runs():
    params = SystemParams.symmetric(0.2)
    times = np.linspace(0.0, 10.0, 101)
    state = make_initial(InitialStateSpec("psi", 0.3), SPACE)
    coarse = evolve(state, SPACE, params, times, step_size=1e-3)
    fine = evolve(state, SPACE, params, times, step_size=5e-4)
    return coarse, fine


def test_criterion_01_independent_reservoir_oracle(oracle_runs):
    runs, times = oracle_runs
    worst = 0.0
    for a2, traj in runs.items():
        sim = c_series(traj)
        ref = independent_decay_concurrence(a2, 1.0, times)
        worst = max(worst, float(np.abs(sim - ref).max()))
        died = bool((sim == 0.0).any())
        assert died == (a2 < 0.5), (
            f"alpha2={a2}: sudden death expected iff alpha2 < 1/2")
    assert worst <= 1e-7, f"closed-form deviation {worst:.3e} > 1e-7"


def test_criterion_02_unitary_limit_conserves_purity_and_excitation(
        unitary_run):
    purity = np.array([float(np.real(np.trace(s.rho_tilde @ s.rho_tilde)))
                       for s in unitary_run.full_states])
    drift_p = float(np.abs(purity - purity[0]).max())
    drift_n = float(np.abs(unitary_run.expect_n
                           - unitary_run.expect_n[0]).max())
    assert drift_p <= 1e-8, f"purity drift {drift_p:.3e}"
    assert drift_n <= 1e-8, f"excitation drift {drift_n:.3e}"


def test_criterion_03_no_emission_dark_periods_and_oscillations(
        no_emission_runs):
    runs, times = no_emission_runs
    c_low = c_series(runs[0.1])
    finite = [iv for iv in detect_esd_intervals(times, c_low)
              if iv[1] is not None]
    assert len(finite) >= 2, f"alpha2=0.1: {len(finite)} finite dark intervals"
    for _, revival in finite:
        peak = float(c_low[times >= revival].max())
        assert peak > 1e-4, f"revival at t={revival:.2f} only reaches {peak:.1e}"

    c_high = c_series(runs[0.6])
    assert float(c_high.min()) > 1e-6, "alpha2=0.6 must not die before t=50"
    maxima = (c_high[1:-1] > c_high[:-2]) & (c_high[1:-1] > c_high[2:])
    assert int(maxima.sum()) >= 2, "alpha2=0.6 should keep oscillating"


def test_criterion_04_low_emission_global_death_window(low_emission_sweep):
    cells = low_emission_sweep.cells
    times = cells[0].times
    window = (times >= 70.0) & (times <= 80.0)
    alive = max(float(c.concurrence[window].max()) for c in cells)
    assert alive > 1e-3, f"no entanglement left near t=75 ({alive:.1e})"
    # H couples the qubits to the mode only through sigma_A + sigma_B, so the
    # subradiant state (|01> - |10>)/sqrt(2) is dark. Emission from |11>
    # feeds it, and it then decays only by spontaneous emission, at gamma_s.
    # The late concurrence is its population up to the 2 sqrt(a d) term (a
    # few percent), so its decay rate must be gamma_s to within 5 %. Every
    # other rate in the model is excluded: the mode's Gamma/2 ~ 0.11 and the
    # bright-state rates >= (gamma_s + Gamma)/4 ~ 0.06.
    late = (times >= 130.0) & (times <= 150.0)
    for cell in cells:
        c = cell.concurrence[late]
        assert float(c.min()) > 0.0, f"alpha2={cell.alpha2}: dies before t=150"
        rate = -float(np.polyfit(times[late], np.log(c), 1)[0])
        assert abs(rate / cell.gamma_s - 1.0) <= 0.05, (
            f"alpha2={cell.alpha2}: late concurrence decays at {rate:.4f}, "
            f"not at the subradiant rate gamma_s={cell.gamma_s}")


def test_criterion_05_strong_emission_no_revival(high_emission_sweep):
    cells = high_emission_sweep.cells
    times = cells[0].times
    for cell in cells:
        c = cell.concurrence
        below = c < 1e-6
        if cell.alpha2 < 0.5:
            assert below.any(), f"alpha2={cell.alpha2}: no finite death time"
            assert float(times[int(np.argmax(below))]) < 5.0, (
                f"alpha2={cell.alpha2}: death too late")
        else:
            rise = float((c - np.minimum.accumulate(c)).max())
            assert rise <= 1e-3, (
                f"alpha2={cell.alpha2}: non-monotone rise {rise:.1e}")
    # gamma_s = 10 omega: each qubit sees mostly its own reservoir, and the
    # shared mode enters at second order in omega/gamma_s. One such trace is
    # a sudden birth on the z branch carried by the dark population (6e-5 at
    # alpha2=0.05), so "no macroscopic revival" is closeness to the
    # independent-reservoir closed form within (omega/gamma_s)^2.
    for cell in cells:
        gs = cell.gamma_s
        bound = (SystemParams.symmetric(gs).omega / gs) ** 2
        ref = independent_decay_concurrence(cell.alpha2, gs, times)
        dev = float(np.abs(cell.concurrence - ref).max())
        assert dev <= bound, (
            f"alpha2={cell.alpha2}: {dev:.3e} from the independent-reservoir "
            f"closed form, above (omega/gamma_s)^2 = {bound:.3e}")


def test_criterion_06_intermediate_emission_revivals_then_decay(
        mid_emission_sweep):
    cells = mid_emission_sweep.cells
    times = cells[0].times
    late = np.abs(times - 150.0) <= 1.0
    for cell in cells:
        tail = float(cell.concurrence[late].max())
        assert tail <= 1e-5, f"alpha2={cell.alpha2}: C near t=150 is {tail:.1e}"
    for cell in cells:
        if cell.alpha2 not in (0.3, 0.4, 0.5):
            continue
        finite = [iv for iv in detect_esd_intervals(times, cell.concurrence)
                  if iv[1] is not None]
        assert finite, f"alpha2={cell.alpha2}: no finite dark interval"
        _, revival = finite[0]
        peak = float(cell.concurrence[times >= revival].max())
        assert peak > 1e-4, f"alpha2={cell.alpha2}: revival only {peak:.1e}"


def test_criterion_07_one_excitation_family_never_dies(
        one_excitation_runs, one_excitation_fast_decay_runs):
    runs, times = one_excitation_runs
    fast, _ = one_excitation_fast_decay_runs
    runs = runs | {(0.8, a2): traj for a2, traj in fast.items()}
    for (gs, a2), traj in runs.items():
        c = c_series(traj)
        zero = c == 0.0
        assert not (zero[:-1] & zero[1:]).any(), (
            f"gamma_s={gs} alpha2={a2}: concurrence sits at zero over "
            "consecutive samples (finite dark interval)")
        amp_a, amp_b = one_excitation_amplitudes(
            a2, SystemParams.symmetric(gs), times)
        gap = float(np.abs(c - 2.0 * np.abs(amp_a * amp_b)).max())
        assert gap <= 1e-9, (
            f"gamma_s={gs} alpha2={a2}: {gap:.3e} from the amplitude oracle")
        # C = 2|c_A c_B| dips wherever c_A or c_B passes through zero; at
        # gamma_s = 0.8 the bright amplitude is underdamped, so such dips
        # go below 1e-6 and recover (up to 1.5e-2). Each dip that recovers
        # must straddle a sign change of c_A or c_B, so it is an isolated
        # zero of C, not a dark period.
        flips = ((np.diff(np.sign(amp_a)) != 0)
                 | (np.diff(np.sign(amp_b)) != 0))
        for death, revival in detect_esd_intervals(times, c):
            if revival is None:
                continue
            i, j = np.searchsorted(times, (death, revival))
            assert flips[max(i - 1, 0):j].any(), (
                f"gamma_s={gs} alpha2={a2}: dark on [{death:g}, "
                f"{revival:g}) with no node of c_A or c_B")
    for a2, traj in fast.items():
        assert (c_series(traj) < 1e-6).any(), (
            f"alpha2={a2}: never decays below 1e-6")


def test_criterion_08_dual_path_agreement_and_x_preservation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho = random_x_state(rng)
        worst = max(worst, abs(concurrence_x_state(rho).c
                               - concurrence_general(rho).c))
    assert worst <= 1e-10, f"dual-path disagreement {worst:.3e}"

    params = SystemParams.symmetric(0.1)
    times = np.linspace(0.0, 10.0, 101)
    specs = (InitialStateSpec("psi", 0.3),
             InitialStateSpec("phi", 0.7),
             InitialStateSpec("werner_psi", 0.5, 0.9, 0.8))
    dev = 0.0
    for spec in specs:
        traj = evolve(make_initial(spec, SPACE), SPACE, params, times)
        dev = max(dev, max(float(x_form_deviation(rho))
                           for rho in traj.reduced))
    assert dev <= 1e-9, f"trajectory leaves the X form by {dev:.3e}"


def test_criterion_09_numerical_health(
        low_emission_sweep, high_emission_sweep, mid_emission_sweep,
        oracle_runs, unitary_run, no_emission_runs, one_excitation_runs,
        one_excitation_fast_decay_runs, theta_runs, werner_runs,
        halving_runs):
    trajectories = [unitary_run, *halving_runs,
                    *oracle_runs[0].values(),
                    *no_emission_runs[0].values(),
                    *one_excitation_runs[0].values(),
                    *one_excitation_fast_decay_runs[0].values(),
                    *theta_runs.values(),
                    *werner_runs[0].values()]
    records = [cell.diagnostics
               for result in (low_emission_sweep, high_emission_sweep,
                              mid_emission_sweep)
               for cell in result.cells]
    records += [traj.diagnostics for traj in trajectories]
    worst_trace = max(diag.max_trace_error for diag in records)
    worst_eig = min(diag.min_eigenvalue for diag in records)
    worst_leak = max(diag.max_sector_leakage for diag in records)
    assert worst_trace <= 1e-9, f"trace error {worst_trace:.3e}"
    assert worst_eig >= -1e-8, f"eigenvalue floor {worst_eig:.3e}"
    assert worst_leak <= 1e-12, f"sector leakage {worst_leak:.3e}"

    coarse, fine = halving_runs
    drift = float(np.abs(c_series(coarse) - c_series(fine)).max())
    assert drift <= 1e-7, f"step-halving concurrence drift {drift:.3e}"


def test_criterion_10_theta_independence(theta_runs):
    series = {th: c_series(traj) for th, traj in theta_runs.items()}
    thetas = sorted(series)
    worst = 0.0
    for i, a in enumerate(thetas):
        for b in thetas[i + 1:]:
            worst = max(worst, float(np.abs(series[a] - series[b]).max()))
    assert worst <= 1e-9, f"relative phase shifts the trajectory by {worst:.3e}"


def test_criterion_11_werner_mixing_accelerates_death(werner_runs):
    runs, times = werner_runs
    deaths = {}
    for r, traj in runs.items():
        below = c_series(traj) <= 1e-6
        assert below.any(), f"r={r}: no death before t={times[-1]:g}"
        deaths[r] = float(times[int(np.argmax(below))])
    assert deaths[0.9] <= deaths[1.0], f"death times {deaths}"
    assert deaths[0.8] <= deaths[0.9], f"death times {deaths}"
