import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_density_matrix
from pseudomode import (
    FullState,
    IntegrationError,
    SystemParams,
    build_space,
    concurrence_general,
    concurrence_x_state,
    evolve,
    liouvillian_matrix,
    make_initial,
    partial_trace_cavity,
    x_form_deviation,
)
from pseudomode import cli, dynamics, sweep
from pseudomode.cli import _parse, main
from pseudomode.entanglement import X_TOLERANCE
from pseudomode.states import InitialStateSpec
from pseudomode.sweep import (
    CSV_COLUMNS,
    DUAL_PATH_TOL,
    GRID_SCHEMA,
    PASS_SAMPLES,
    ROWS_SCHEMA,
    WRITE_ROWS,
    CellResult,
    SweepConfig,
    SweepResult,
    _concurrences,
    detect_esd_intervals,
    load_raw_state,
    run_sweep,
    save_raw_state,
    write_grid_csv,
    write_rows_csv,
)

SMALL = SweepConfig(family="psi", alpha2_grid=(0.2, 0.5, 0.8),
                    gamma_s_list=(0.0, 0.2), t_max=2.0, n_steps=10)


def _raw_non_x_state(space, seed: int) -> FullState:
    """Entangled state of full rank on the basis states with at most two
    excitations: 0.8 of a pure state with a |00>-|10> coherence, which
    takes the reduced state off the X pattern, and 0.2 of a random one."""
    low = [f for f in range(space.dim_total)
           if sum(space.unflatten(f)) <= 2]
    v = np.zeros(space.dim_total, dtype=complex)
    v[[space.flat_index(0, 0, 0), space.flat_index(1, 1, 0),
       space.flat_index(1, 0, 0)]] = 0.6, 0.7, 0.3
    rho = 0.8 * np.outer(v, v.conj()) / np.vdot(v, v).real
    rho[np.ix_(low, low)] += 0.2 * random_density_matrix(
        np.random.default_rng(seed), len(low))
    return FullState(rho)


def _assert_cells_equal_fresh_evolves(cells, cfg):
    """Each psi cell against its own evolve with no builds shared, and that
    trajectory's concurrence pass: every series and the path, bit for
    bit."""
    space = build_space(cfg.n_fock)
    for cell in cells:
        init = make_initial(InitialStateSpec("psi", cell.alpha2), space)
        traj = evolve(init, space, cfg.system_params(cell.gamma_s),
                      cfg.times())
        (conc, c1, c2, path), = _concurrences([traj.reduced])
        assert cell.path == path
        for got, expected in [(cell.times, traj.times),
                              (cell.concurrence, conc), (cell.c1, c1),
                              (cell.c2, c2),
                              (cell.trace_error, traj.trace_error),
                              (cell.min_eigenvalue, traj.min_eigenvalue)]:
            assert np.array_equal(got, expected, equal_nan=True)


def _real_non_x_state(space) -> FullState:
    """A pure state with a |00>-|10> coherence and no photon: real in the
    photon-number gauge (one row-block), and off the X pattern."""
    v = np.zeros(space.dim_total, dtype=complex)
    v[[space.flat_index(0, 0, 0), space.flat_index(1, 0, 0),
       space.flat_index(1, 1, 0)]] = 0.6, 0.3, 0.7
    return FullState(np.outer(v, v) / np.vdot(v, v).real)


def _rows_by_value(result: SweepResult) -> bytes:
    """The rows CSV with every value of iter_rows formatted on its own."""
    lines = [f"# schema={ROWS_SCHEMA}", ",".join(CSV_COLUMNS)]
    for *floats, pathname in result.iter_rows():
        lines.append(",".join([f"{x:.17g}" for x in floats] + [pathname]))
    return ("\n".join(lines) + "\n").encode("ascii")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            replace(SMALL, alpha2_grid=()).validate()
        with pytest.raises(ValueError):
            replace(SMALL, gamma_s_list=()).validate()
        with pytest.raises(ValueError):
            replace(SMALL, rate_unit="hertz").validate()
        with pytest.raises(ValueError):
            replace(SMALL, t_max=0.0).validate()
        with pytest.raises(ValueError):
            replace(SMALL, n_steps=0).validate()
        with pytest.raises(ValueError):
            replace(SMALL, alpha2_grid=(1.5,)).validate()
        with pytest.raises(ValueError):
            replace(SMALL, family="ghz").validate()
        with pytest.raises(ValueError, match="step_size"):
            replace(SMALL, step_size=math.inf).validate()
        with pytest.raises(ValueError, match="gamma_cavity"):
            replace(SMALL, gamma_cavity=-1.0).validate()
        with pytest.raises(ValueError, match="n_fock >= 3"):
            replace(SMALL, n_fock=2).validate()
        for threshold in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="esd_threshold"):
                replace(SMALL, esd_threshold=threshold).validate()
        replace(SMALL, family="phi", n_fock=2).validate()
        SMALL.validate()

    def test_rates_must_be_real_and_counts_integers(self, monkeypatch):
        # a complex omega or gamma_s, in either rate unit, and a cutoff or
        # step count that is not an integer are rejected by type with
        # ValueError, by validate() and by run_sweep before any cell
        # runs, and before a complex value is read as a float (no warning)
        monkeypatch.setattr(sweep, "_run_cell", None)  # must not be reached
        complex_rate = np.complex128(0.2 + 0.1j)
        changes = [dict(omega=0.2 + 0.1j), dict(omega=np.complex128(0.2)),
                   dict(omega=complex_rate, rate_unit="omega"),
                   dict(gamma_s_list=(0.1, 0.2 + 0.1j)),
                   dict(gamma_s_list=(complex_rate,)),
                   dict(gamma_s_list=(np.complex128(0.2),)),
                   dict(gamma_s_list=(complex_rate,), rate_unit="omega"),
                   dict(n_fock=3.5), dict(n_fock=np.float64(3)),
                   dict(n_fock=3.5, initial_state_path="state.txt"),
                   dict(n_steps=2.5), dict(n_steps=np.float64(10))]
        for change in changes:
            cfg = replace(SMALL, **change)
            for call in (cfg.validate, lambda: run_sweep(cfg)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="real|integer"):
                        call()

    @pytest.mark.parametrize("change", [
        dict(t_max=1.0 + 0.5j), dict(step_size=np.complex128(1e-3)),
        dict(esd_threshold=1e-6 + 0j), dict(theta=np.complex128(0.4 + 0.1j)),
        dict(alpha2_grid=(0.2, 0.5 + 0.1j)), dict(r=np.complex128(0.6))],
        ids=lambda change: next(iter(change)))
    def test_real_fields_must_be_real(self, monkeypatch, change):
        # a complex value of a real field is rejected by type with
        # ValueError, by validate() and by run_sweep before any cell runs,
        # and before it is compared or read as a float (TypeError there)
        monkeypatch.setattr(sweep, "_run_cell", None)  # must not be reached
        cfg = replace(SMALL, **change)
        for call in (cfg.validate, lambda: run_sweep(cfg)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be a real number"):
                    call()

    def test_rate_unit_conversion(self):
        cfg = replace(SMALL, gamma_s_list=(0.1, 1.0, 10.0), rate_unit="omega",
                      omega=0.2)
        assert cfg.resolved_gamma_s() == pytest.approx((0.02, 0.2, 2.0))
        assert SMALL.resolved_gamma_s() == (0.0, 0.2)


class TestRunSweep:
    def test_cardinality_and_order(self):
        result = run_sweep(SMALL)
        rows = list(result.iter_rows())
        # cells x (n_steps + 1) samples
        assert len(rows) == 6 * 11
        assert not result.failed
        gammas = [r[0] for r in rows]
        alphas = [r[1] for r in rows]
        assert gammas == sorted(gammas)  # config order happens to be sorted
        assert alphas[:22] == [0.2] * 11 + [0.5] * 11
        times = [r[2] for r in rows[:11]]
        assert times == pytest.approx(list(np.linspace(0, 2, 11)))

    def test_x_fast_path_used(self):
        result = run_sweep(SMALL)
        assert all(c.path == "x_state" for c in result.cells)
        for cell in result.cells:
            assert not np.isnan(cell.c1).any()

    def test_general_path_equals_the_per_sample_loop(self, tmp_path,
                                                     space3):
        state = _raw_non_x_state(space3, 7)
        raw = tmp_path / "state.txt"
        save_raw_state(state, str(raw))
        cfg = replace(SMALL, initial_state_path=str(raw),
                      gamma_s_list=(0.1,), t_max=5.0, n_steps=50)
        (cell,) = run_sweep(cfg).cells
        assert cell.path == "general" and (cell.concurrence > 0.02).all()
        traj = evolve(load_raw_state(str(raw)), space3,
                      cfg.system_params(0.1), cfg.times())
        loop = [concurrence_general(rho).c for rho in traj.reduced]
        assert np.array_equal(cell.concurrence, loop)

    def test_failed_cell_is_isolated(self):
        # second gamma value puts RK4 far outside its stability region:
        # with h = 1e-3 the doubly excited population decays at rate
        # 2 gamma_s = 4000, h lambda = -4, and each step multiplies it by
        # |R(-4)| = 5, so the state is unphysical by the first sample
        cfg = replace(SMALL, gamma_s_list=(0.0, 2000.0), t_max=0.1, n_steps=10)
        result = run_sweep(cfg)
        assert result.failed
        bad = result.failed_cells
        assert all(c.gamma_s == 2000.0 for c in bad)
        good = [c for c in result.cells if not c.failed]
        assert [c.gamma_s for c in good] == [0.0, 0.0, 0.0]
        rows = list(result.iter_rows())
        assert len(rows) == 3 * 11
        space = build_space(cfg.n_fock)
        for cell in bad:
            init = make_initial(InitialStateSpec("psi", cell.alpha2), space)
            with pytest.raises(IntegrationError) as err:
                evolve(init, space, cfg.system_params(2000.0), cfg.times())
            exc = err.value
            assert cell.error == f"IntegrationError: {exc}"
            assert exc.invariant in ("trace", "finite", "positivity")
            assert 0.0 < exc.time <= cfg.times()[1]
            assert abs(exc.value) > abs(exc.limit)

    @pytest.mark.parametrize("gamma_s_list", [(0.0, 0.2), (0.0, 2000.0)])
    def test_builds_are_shared_within_one_run(self, monkeypatch,
                                              gamma_s_list):
        # the cells of one gamma_s share one generator, and nothing is
        # kept from one run to the next, not even when the next run starts
        # on the gamma_s the last one ended on; every healthy cell equals
        # its own evolve with no builds shared, also next to a failed
        # gamma_s
        built = []
        build = dynamics.gauged_generator

        def recording(space, params):
            built.append(params.gamma_a)
            return build(space, params)

        monkeypatch.setattr(dynamics, "gauged_generator", recording)
        cfg = replace(SMALL, gamma_s_list=gamma_s_list, t_max=0.1,
                      n_steps=10)
        cells = []
        for order in (gamma_s_list, gamma_s_list, gamma_s_list[::-1]):
            built.clear()
            result = run_sweep(replace(cfg, gamma_s_list=order))
            assert built == list(order)
            assert [c.failed for c in result.cells] == [
                g == 2000.0 for g in order for _ in range(3)]
            cells += result.cells
        _assert_cells_equal_fresh_evolves(
            [cell for cell in cells if not cell.failed], cfg)

    def test_a_pattern_change_within_one_gamma_s_builds_again(
            self, monkeypatch):
        # psi at alpha2 = 0 and 1 is a product state with a nonzero pattern
        # of its own, so within one gamma_s each run of cells whose initial
        # states share a pattern builds one generator; every cell equals
        # its own evolve with no builds shared
        built = []
        build = dynamics.gauged_generator

        def recording(space, params):
            built.append(params.gamma_a)
            return build(space, params)

        monkeypatch.setattr(dynamics, "gauged_generator", recording)
        cfg = replace(SMALL, alpha2_grid=(0.0, 0.5, 1.0))
        result = run_sweep(cfg)
        assert len(result.cells) == 6 and not result.failed
        space = build_space(cfg.n_fock)
        patterns = [(make_initial(InitialStateSpec("psi", a), space)
                     .rho_tilde != 0).tobytes() for a in cfg.alpha2_grid]
        runs = 1 + sum(a != b for a, b in zip(patterns, patterns[1:]))
        assert runs == 3
        assert built == [g for g in cfg.gamma_s_list for _ in range(runs)]
        _assert_cells_equal_fresh_evolves(result.cells, cfg)

    @pytest.mark.parametrize("rate", ["gamma_s", "gamma_cavity"])
    def test_an_overflowing_generator_fails_its_own_check(self, rate):
        # a rate of 1e308 overflows the generator's diagonal: the build
        # fails on the 'generator' check at the initial time, before the
        # trace law and with no floating-point warning, and leaves the
        # shared dict as it was; a sweep fails those cells alone, each
        # with evolve's own message
        cfg = (replace(SMALL, gamma_s_list=(0.2, 1e308)) if rate == "gamma_s"
               else replace(SMALL, gamma_cavity=1e308))
        space = build_space(cfg.n_fock)
        init = make_initial(InitialStateSpec("psi", 0.5), space)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            shared = {}
            evolve(init, space, SystemParams.symmetric(0.2), cfg.times(),
                   shared=shared)
            before = dict(shared)
            with pytest.raises(IntegrationError) as err:
                evolve(init, space, cfg.system_params(cfg.gamma_s_list[-1]),
                       cfg.times(), shared=shared)
            result = run_sweep(cfg)
        exc = err.value
        assert (exc.invariant, exc.time, exc.value, exc.limit) == (
            "generator", 0.0, math.inf, np.finfo(float).max)
        assert shared.keys() == before.keys()
        assert all(shared[k] is v for k, v in before.items())
        bad = [g for g in cfg.gamma_s_list
               if max(g, cfg.gamma_cavity) == 1e308]
        assert [c.gamma_s for c in result.failed_cells] == [
            g for g in bad for _ in cfg.alpha2_grid]
        assert all(c.error == f"IntegrationError: {exc}"
                   for c in result.failed_cells)
        _assert_cells_equal_fresh_evolves(
            [c for c in result.cells if not c.failed], cfg)

    def test_initial_states_are_made_once_per_sweep(self, monkeypatch,
                                                     tmp_path, space3):
        # each alpha2's state is built once, and a raw file loaded once,
        # for every gamma_s and for the validation; the cells are those
        # of the same state evolved on its own
        calls = {"make_initial": 0, "load_raw_state": 0}
        for name in calls:
            def counting(*args, _name=name, _call=getattr(sweep, name)):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(sweep, name, counting)
        result = run_sweep(SMALL)  # 2 gamma_s x 3 alpha2
        assert len(result.cells) == 6 and not result.failed
        assert calls == {"make_initial": 3, "load_raw_state": 0}

        raw = tmp_path / "state.txt"
        save_raw_state(make_initial(InitialStateSpec("psi", 0.4), space3),
                       str(raw))
        calls.update(make_initial=0)
        result = run_sweep(replace(SMALL, initial_state_path=str(raw)))
        assert calls == {"make_initial": 0, "load_raw_state": 1}
        assert len(result.cells) == 2 and not result.failed
        family = run_sweep(replace(SMALL, alpha2_grid=(0.4,)))
        for cell, same in zip(result.cells, family.cells):
            assert math.isnan(cell.alpha2) and cell.gamma_s == same.gamma_s
            assert np.array_equal(cell.concurrence, same.concurrence)

    @pytest.mark.parametrize("content", ["144\n1 0\n", None])
    def test_unloadable_raw_state_fails_every_cell(self, tmp_path, capsys,
                                                   content):
        # a file that cannot be loaded fails each cell with its own error,
        # and the CLI lists them all and exits 1
        raw = tmp_path / "state.txt"
        if content is None:
            expected = ("FileNotFoundError: [Errno 2] No such file or "
                        f"directory: '{raw}'")
        else:
            raw.write_text(content)
            expected = (f"ValueError: {raw}: expected 20736 entry lines "
                        "for dimension 144, found 1")
        cfg = replace(SMALL, initial_state_path=str(raw))
        result = run_sweep(cfg)
        assert [c.error for c in result.cells] == [expected] * 2
        assert [c.gamma_s for c in result.cells] == [0.0, 0.2]
        assert all(len(c.times) == 0 for c in result.cells)
        out = tmp_path / "rows.csv"
        rc = main(["--initial-state-file", str(raw), "--gamma-s", "0.0,0.2",
                   "--rate-unit", "gamma0", "--t-max", "2", "--steps", "10",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"failed cell gamma_s={g} alpha2=nan: {expected}"
                       for g in ("0", "0.2")]
        assert out.read_text().splitlines()[2:] == []

    def test_small_steps_reach_the_matrix_exponential(self):
        # the propagator is carried as its increment P - I from the step
        # to the fill, so a step far below the default loses nothing
        # against the diagonal's 1s: down to 1e-10, the cell stays healthy
        # and its concurrence is that of scipy's expm to within rounding
        space = build_space(3)
        cfg = SweepConfig(family="psi", alpha2_grid=(0.3,),
                          gamma_s_list=(0.2,), t_max=1.0, n_steps=10)
        init = make_initial(InitialStateSpec("psi", 0.3), space)
        step = expm(liouvillian_matrix(space, cfg.system_params(0.2)) * 0.1)
        states = [init.rho_tilde.reshape(-1)]
        for _ in range(cfg.n_steps):
            states.append(step @ states[-1])
        reduced = np.array([partial_trace_cavity(v.reshape(12, 12), space)
                            for v in states])
        expected = concurrence_general(reduced).c
        for step_size in (1e-4, 1e-6, 1e-8, 1e-10):
            result = run_sweep(replace(cfg, step_size=step_size))
            cell, = result.cells
            assert cell.error is None, (step_size, cell.error)
            err = np.abs(cell.concurrence - expected).max()
            assert err <= 1e-14, (step_size, err)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(run_sweep(SMALL), str(p1))
        write_rows_csv(run_sweep(SMALL), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _alone(reduced: np.ndarray) -> tuple:
    """One cell's concurrence from the public functions on its own
    reduced states: the closed form if every sample is within X tolerance
    and the first, middle and last samples agree with the general
    algorithm, else the general algorithm on every sample, which is
    handed complex matrices. A failing check raises its ValueError."""
    n = len(reduced)
    rho = reduced.astype(complex)
    if x_form_deviation(reduced) <= X_TOLERANCE:
        x = concurrence_x_state(reduced)
        # the closed form gives the same bits on the real array
        assert x.c.tobytes() == concurrence_x_state(rho).c.tobytes()
        spots = sorted({0, n // 2, n - 1})
        gap = np.abs(x.c[spots] - concurrence_general(rho[spots]).c)
        if (gap <= DUAL_PATH_TOL).all():
            return x.c, x.c1, x.c2, "x_state"
    nan = np.full(n, math.nan)
    return concurrence_general(rho).c, nan, nan, "general"


def _same_cell(got: tuple, expected: tuple) -> bool:
    """Two (c, c1, c2, path) results with the same bits."""
    return got[3] == expected[3] and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(got[:3], expected[:3]))


class TestConcurrenceGroups:
    """Consecutive healthy cells whose samples sum to at most PASS_SAMPLES
    share one concurrence pass; each cell gets what it would get alone."""

    def _trajectories(self, space, n_steps=40):
        params = SystemParams.symmetric(0.2)
        times = np.linspace(0.0, 4.0, n_steps + 1)
        states = {
            "psi": make_initial(InitialStateSpec("psi", 0.3), space),
            "phi": make_initial(InitialStateSpec("phi", 0.3), space),
            "werner": make_initial(
                InitialStateSpec("werner_psi", 0.3, r=0.6), space),
            "phi 0.4": make_initial(
                InitialStateSpec("phi", 0.3, theta=0.4), space),
            "raw": _raw_non_x_state(space, 7),
            "raw real": _real_non_x_state(space),
        }
        return {name: evolve(init, space, params, times)
                for name, init in states.items()}

    def test_grouped_cells_equal_each_cell_alone(self, space3):
        # real (one row-block) and complex (two) cells, with cells on the
        # general path among closed-form ones, in a real stack, a complex
        # one and alone: each result has the bits of the public functions
        # on the cell alone, and a general cell leaves its neighbours on
        # the closed form
        trajs = self._trajectories(space3)
        assert trajs["psi"].reduced.dtype == np.float64
        assert trajs["raw real"].reduced.dtype == np.float64
        assert trajs["phi 0.4"].reduced.dtype == complex
        assert trajs["raw"].reduced.dtype == complex
        for order in (["psi", "raw real", "phi"],
                      ["psi", "raw", "phi", "raw real", "werner", "phi 0.4"],
                      ["raw real"], ["psi"]):
            results = _concurrences([trajs[k].reduced for k in order])
            assert [r[3] for r in results] == [
                "general" if k.startswith("raw") else "x_state"
                for k in order]
            for name, result in zip(order, results):
                assert _same_cell(result, _alone(trajs[name].reduced)), name

    @pytest.mark.parametrize("plant", [
        "hermiticity", "trace", "non_finite", "negative_spot",
        "negative_general"])
    def test_a_failing_cell_fails_alone_with_its_own_message(
            self, monkeypatch, plant):
        # a check of the concurrence stage that one cell of a group fails
        # fails that cell only, with the message the public functions give
        # it alone; the other cells of the group keep their results
        def planted(reduced):
            bad = reduced.astype(complex)
            if plant == "hermiticity":
                bad[4, 1, 2] += 1e-6  # on the X pattern
            elif plant == "trace":
                bad[7] *= 1.01
            elif plant == "non_finite":
                bad[5, 0, 0] = math.nan
            elif plant == "negative_spot":  # an X state, sample 0
                bad[0] = np.diag([0.6, 0.5, -0.05, -0.05])
            else:  # off the X pattern, so only the general path sees it
                bad[3] = np.diag([0.6, 0.5, -0.05, -0.05])
                bad[3, 0, 1] = bad[3, 1, 0] = 1e-6
            return bad

        evolved = []

        def evolving(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            evolved.append(traj.reduced)
            if len(evolved) == 2:  # the middle cell
                traj.reduced = planted(traj.reduced)
            return traj

        groups = []
        grouped = sweep._concurrences

        def recording(reduced):
            groups.append(len(reduced))
            return grouped(reduced)

        cfg = replace(SMALL, gamma_s_list=(0.2,))
        clean = run_sweep(cfg)
        monkeypatch.setattr(sweep, "evolve", evolving)
        monkeypatch.setattr(sweep, "_concurrences", recording)
        result = run_sweep(cfg)
        assert groups == [3]
        with pytest.raises(ValueError) as err:
            _alone(planted(evolved[1]))
        assert [c.failed for c in result.cells] == [False, True, False]
        assert result.cells[1].error == f"ValueError: {err.value}"
        for got, expected in zip(result.cells[::2], clean.cells[::2]):
            assert got.path == expected.path == "x_state"
            for a, b in [(got.concurrence, expected.concurrence),
                         (got.c1, expected.c1), (got.c2, expected.c2)]:
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_steps, gamma_s_list, groups", [
        (10, (0.0, 0.2), [[11] * 6]),
        (255, (0.0, 0.2), [[256] * 6]),
        (170, (0.0,), [[171] * 3]),
        (512, (0.0, 0.2), [[513] * 6]),
        # a failed cell ends a group
        (10, (0.2, 2000.0, 0.0), [[11] * 3, [11] * 3]),
        (1365, (0.0,), [[1366, 1366], [1366]]),
        # cells that fill the budget exactly, and one sample over it
        (PASS_SAMPLES // 2 - 1, (0.0, 0.2), [[PASS_SAMPLES // 2] * 2] * 3),
        (PASS_SAMPLES // 2, (0.0,), [[PASS_SAMPLES // 2 + 1]] * 3),
        (PASS_SAMPLES, (0.0, 0.2), [[PASS_SAMPLES + 1]] * 6),
    ])
    def test_groups_hold_consecutive_healthy_cells_up_to_a_run(
            self, monkeypatch, n_steps, gamma_s_list, groups):
        # consecutive healthy cells share a pass while their samples sum
        # to at most PASS_SAMPLES; a longer cell is never grouped
        seen = []
        grouped = sweep._concurrences

        def recording(reduced):
            seen.append([len(r) for r in reduced])
            return grouped(reduced)

        monkeypatch.setattr(sweep, "_concurrences", recording)
        cfg = replace(SMALL, gamma_s_list=gamma_s_list, t_max=0.1 * n_steps,
                      n_steps=n_steps)
        result = run_sweep(cfg)
        assert seen == groups
        assert [c.failed for c in result.cells] == [
            g == 2000.0 for g in gamma_s_list for _ in cfg.alpha2_grid]

    def test_a_cell_the_spot_check_refutes_alone_takes_the_general_path(
            self, monkeypatch, space3):
        # an X-form cell whose first sample is (1 - p)|00><00| + p|v><v|,
        # v = (1, 1, 1, -1) / 2: its off-X entries, p / 4, are within
        # X_TOLERANCE, but the closed form reads 0 there and the general
        # algorithm about p. The joint spot check succeeds, and only that
        # cell disagrees with it: it alone takes the general path, and its
        # neighbours keep the closed form
        trajs = self._trajectories(space3)
        p = 3.6e-9
        v = np.array([1.0, 1.0, 1.0, -1.0]) / 2
        planted = trajs["psi"].reduced.copy()
        planted[0] = p * np.outer(v, v)
        planted[0, 0, 0] += 1.0 - p
        assert x_form_deviation(planted) <= X_TOLERANCE
        assert abs(concurrence_x_state(planted[0]).c
                   - concurrence_general(planted[0]).c) > DUAL_PATH_TOL
        calls = []
        general = sweep.concurrence_general

        def checking(rho):
            calls.append(rho.shape)
            return general(rho)

        monkeypatch.setattr(sweep, "concurrence_general", checking)
        cells = [trajs["psi"].reduced, planted, trajs["werner"].reduced]
        results = _concurrences(cells)
        assert calls == [(3, 3, 4, 4), (len(planted), 4, 4)]
        assert [r[3] for r in results] == ["x_state", "general", "x_state"]
        for reduced, result in zip(cells, results):
            assert _same_cell(result, _alone(reduced))

    def _recording_evolve(self, monkeypatch) -> list:
        """Patch the sweep's evolve to collect each cell's reduced states."""
        evolved = []

        def evolving(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            evolved.append(traj.reduced)
            return traj

        monkeypatch.setattr(sweep, "evolve", evolving)
        return evolved

    def test_a_grid_sweep_takes_one_pass_and_one_spot_check(
            self, monkeypatch):
        # the 19 cells of 151 samples of the benchmark's grid sweep fit one
        # pass, whose closed-form cells are spot-checked in one call; each
        # cell still gets the bits it would get alone
        evolved = self._recording_evolve(monkeypatch)
        passes, spot_checks = [], []
        grouped, general = sweep._concurrences, sweep.concurrence_general

        def recording(reduced):
            passes.append([len(r) for r in reduced])
            return grouped(reduced)

        def checking(rho):
            spot_checks.append(rho.shape)
            return general(rho)

        monkeypatch.setattr(sweep, "_concurrences", recording)
        monkeypatch.setattr(sweep, "concurrence_general", checking)
        cfg = SweepConfig(family="psi",
                          alpha2_grid=tuple(i / 20 for i in range(1, 20)),
                          gamma_s_list=(0.02,), t_max=15.0, n_steps=150)
        result = run_sweep(cfg)
        assert passes == [[151] * 19]
        assert spot_checks == [(19, 3, 4, 4)]
        assert len(evolved) == len(result.cells) == 19
        for reduced, cell in zip(evolved, result.cells):
            assert cell.path == "x_state"
            assert _same_cell((cell.concurrence, cell.c1, cell.c2, cell.path),
                              _alone(reduced)), cell.alpha2

    def test_a_cell_over_the_budget_is_read_in_place(self, monkeypatch):
        # a cell of more than PASS_SAMPLES samples reaches the pass as its
        # trajectory's own array, and the pass checks it without a copy
        evolved = self._recording_evolve(monkeypatch)
        passes, checked = [], []
        grouped, input_errors = sweep._concurrences, sweep._input_errors

        def recording(reduced):
            passes.append(reduced)
            return grouped(reduced)

        def checking(stack):
            checked.append(stack)
            return input_errors(stack)

        monkeypatch.setattr(sweep, "_concurrences", recording)
        monkeypatch.setattr(sweep, "_input_errors", checking)
        cfg = replace(SMALL, alpha2_grid=(0.2, 0.5), gamma_s_list=(0.2,),
                      t_max=0.1 * PASS_SAMPLES, n_steps=PASS_SAMPLES)
        run_sweep(cfg)
        assert len(evolved) == len(passes) == len(checked) == 2
        for reduced, group, stack in zip(evolved, passes, checked):
            assert len(group) == 1 and group[0] is reduced
            assert np.shares_memory(stack, reduced)


class TestDetectEsd:
    def test_identically_zero(self):
        times = np.linspace(0.0, 4.0, 5)
        assert detect_esd_intervals(times, np.zeros(5)) == [(0.0, None)]

    def test_finite_and_open_runs(self):
        times = np.arange(5.0)
        conc = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        out = detect_esd_intervals(times, conc, threshold=0.0)
        assert out == [(1.0, 3.0), (4.0, None)]

    def test_threshold_inclusive(self):
        times = np.arange(3.0)
        conc = np.array([1.0, 1e-6, 1.0])
        assert detect_esd_intervals(times, conc, threshold=1e-6) == [(1.0, 2.0)]
        assert detect_esd_intervals(times, conc, threshold=1e-7) == []

    def test_no_dark_samples(self):
        times = np.arange(4.0)
        assert detect_esd_intervals(times, np.ones(4)) == []

    def test_dark_at_the_first_and_last_samples(self):
        times = np.arange(5.0)
        for conc, expected in (([0.0, 0.0, 1.0, 1.0, 1.0], [(0.0, 2.0)]),
                               ([1.0, 1.0, 1.0, 1.0, 0.0], [(4.0, None)]),
                               ([0.0, 1.0, 1.0, 0.0, 0.0],
                                [(0.0, 1.0), (3.0, None)])):
            assert detect_esd_intervals(times, np.array(conc)) == expected
        assert detect_esd_intervals([2.0], [0.0]) == [(2.0, None)]
        assert detect_esd_intervals([2.0], [1.0]) == []
        assert detect_esd_intervals([], []) == []

    def test_matches_a_sample_by_sample_scan(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 10, 200):
            for _ in range(40):
                times = np.sort(rng.random(n))
                conc = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
                expected, start = [], None
                for t, c in zip(times.tolist(), conc.tolist()):
                    if c <= 0.3 and start is None:
                        start = t
                    elif c > 0.3 and start is not None:
                        expected.append((start, t))
                        start = None
                if start is not None:
                    expected.append((start, None))
                got = detect_esd_intervals(times, conc, threshold=0.3)
                assert got == expected
                assert all(type(t) is float for run in got for t in run
                           if t is not None)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            detect_esd_intervals(np.arange(3.0), np.ones(4))
        with pytest.raises(ValueError):
            detect_esd_intervals(np.arange(3.0), np.ones(3), threshold=-1.0)
        # NaN fails every comparison, so it must be rejected, not read as
        # a threshold nothing lies under or a sample that is not dark
        for threshold in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                detect_esd_intervals(np.arange(3.0), np.zeros(3),
                                     threshold=threshold)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="concurrence"):
                detect_esd_intervals(np.arange(3.0),
                                     np.array([0.5, value, 0.0]))


class TestCsv:
    def test_rows_schema_and_round_trip(self, tmp_path):
        result = run_sweep(SMALL)
        path = tmp_path / "rows.csv"
        write_rows_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# schema={ROWS_SCHEMA}"
        assert lines[1] == ("gamma_s,alpha2,t_scaled,concurrence,c1,c2,"
                            "trace_error,min_eigenvalue,path")
        body = lines[2:]
        rows = list(result.iter_rows())
        assert len(body) == len(rows)
        # 17 significant digits reproduce the doubles exactly
        first = body[0].split(",")
        assert float(first[3]) == rows[0][3]
        assert first[8] == "x_state"
        last = body[-1].split(",")
        assert float(last[2]) == rows[-1][2]
        assert float(last[3]) == rows[-1][3]

    def test_certified_samples_write_zero(self, tmp_path, monkeypatch):
        # psi at gamma_s 0.2: the certificate takes every block of every
        # sample, so min_eigenvalue is +0.0 throughout and the rows read
        # 0; at 20, RK4 error leaves some samples uncertified, and exactly
        # those carry LAPACK's minimum, across two runs of points
        refused, stacks = [], []
        certify, eigvalsh = dynamics._certified, np.linalg.eigvalsh

        def recording(sym):
            ok = certify(sym)
            refused.append((~ok).reshape(2, -1).any(axis=0))  # 2 blocks
            return ok

        def lapack(a, *args, **kwargs):
            stacks.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_certified", recording)
        monkeypatch.setattr(np.linalg, "eigvalsh", lapack)
        n_steps = dynamics.CHECK_CHUNK + 150
        for gamma_s in (0.2, 20.0):
            refused.clear()
            stacks.clear()
            result = run_sweep(replace(SMALL, alpha2_grid=(0.3,),
                                       gamma_s_list=(gamma_s,), t_max=15.0,
                                       n_steps=n_steps))
            path = tmp_path / "rows.csv"
            write_rows_csv(result, str(path))
            column = [line.split(",")[7]
                      for line in path.read_text().splitlines()[2:]]
            low = result.cells[0].min_eigenvalue
            mask = np.concatenate(refused)
            assert len(refused) == 2 and len(mask) == len(low)
            if gamma_s == 0.2:
                assert stacks == [] and not mask.any()
            else:
                # one block a refused sample
                assert mask.sum() == sum(map(len, stacks)) > 0
                assert np.array_equal(low[mask], np.concatenate(
                    [eigvalsh(a)[:, 0] for a in stacks]))
                assert (low[mask] < 0).all()
            assert not low[~mask].view(np.int64).any()  # +0.0 only
            assert column == ["%.17g" % x for x in low]
            assert set(column) - {"0"} == {
                "%.17g" % x for x in low[mask]}

    def test_rows_bytes_match_the_line_by_line_writer(self, tmp_path,
                                                      space3):
        # a raw non-X state (alpha2 nan) takes the general path (c1, c2
        # nan), its gamma_s = 2000 twin fails, and SMALL adds closed-form
        # cells; the streamed file must equal one %.17g per value
        raw = tmp_path / "state.txt"
        save_raw_state(_raw_non_x_state(space3, 4), str(raw))
        mixed = run_sweep(replace(SMALL, initial_state_path=str(raw),
                                  gamma_s_list=(0.1, 2000.0), t_max=0.1))
        result = SweepResult(SMALL, mixed.cells + run_sweep(SMALL).cells)
        general, failed = mixed.cells
        assert general.path == "general" and math.isnan(general.alpha2)
        assert np.isnan(general.c1).all() and failed.failed

        path = tmp_path / "rows.csv"
        write_rows_csv(result, str(path))
        assert path.read_bytes() == _rows_by_value(result)

    def test_rows_format_every_value_by_its_bits(self, tmp_path):
        # -0.0 next to 0.0 in one column, NaN branches on a general-path
        # cell, values repeated within and across columns, a failed cell,
        # and cells longer than one write slice
        n = WRITE_ROWS + 37
        times = np.linspace(0.0, 5.0, n)
        rng = np.random.default_rng(8)
        conc = np.round(rng.random(n), 2)
        conc[::7], conc[3::7] = 0.0, -0.0
        signed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        neg_nan = -np.full(n, math.nan)

        def cell(gamma_s, alpha2, path, c1, c2, error=None):
            return CellResult(gamma_s, alpha2, times, conc, c1, c2,
                              trace_error=np.abs(times - 2.5) * 1e-15,
                              min_eigenvalue=signed, path=path,
                              error=error)

        result = SweepResult(SMALL, [
            cell(0.2, 0.25, "x_state", conc - 0.5, signed),
            cell(0.2, math.nan, "general", np.full(n, math.nan), neg_nan),
            cell(2000.0, 0.25, "none", conc, conc, error="IntegrationError"),
            cell(-0.0, 0.0, "x_state", signed, conc)])
        assert len(set(conc.tolist())) < n // 10
        path = tmp_path / "rows.csv"
        write_rows_csv(result, str(path))
        data = path.read_bytes()
        assert data == _rows_by_value(result)
        assert b",-0," in data and b",0," in data and b",nan,nan," in data
        assert data.count(b"\n") == 2 + 3 * n

    def test_rows_reuse_time_strings_only_for_the_same_bits(self, tmp_path,
                                                          monkeypatch):
        # consecutive healthy cells with bit-identical times share one
        # formatting of them; -0.0 against 0.0, one ulp, another length or
        # a cell past a failed one with other times each format anew
        n = WRITE_ROWS + 5
        grid = np.linspace(0.0, 5.0, n)
        signed, ulp = grid.copy(), grid.copy()
        signed[0] = -0.0
        ulp[n // 2] = np.nextafter(ulp[n // 2], 10.0)
        empty = np.empty(0)

        def cell(times, error=None):
            values = np.sin(times)
            if error:
                times = values = empty
            return CellResult(0.2, 0.5, times, values, values, values,
                              trace_error=values, min_eigenvalue=values,
                              path="none" if error else "x_state",
                              error=error)

        cells = [cell(grid), cell(grid.copy()), cell(grid, "failed"),
                 cell(grid.copy()), cell(signed), cell(signed.copy()),
                 cell(grid), cell(ulp), cell(grid[:-1]), cell(grid[:-1])]
        formats = []
        formatted = sweep._formatted

        def counting(values):
            formats.append(values.ndim)
            return formatted(values)

        monkeypatch.setattr(sweep, "_formatted", counting)
        result = SweepResult(SMALL, cells)
        path = tmp_path / "rows.csv"
        write_rows_csv(result, str(path))
        assert path.read_bytes() == _rows_by_value(result)
        assert b",0.5,-0," in path.read_bytes()
        # one dimension: the times; grid, signed, grid, ulp, grid[:-1]
        assert formats.count(1) == 5

    def test_grid_bytes_match_the_value_by_value_layout(self, tmp_path):
        result = run_sweep(replace(SMALL, gamma_s_list=(0.2,),
                                   alpha2_grid=(0.0, 0.5, 1.0)))
        # -0.0 in the header, the times and a concurrence column, next to
        # the 0.0 of the alpha2 = 1 column
        zero = result.cells[0]
        zero.concurrence = np.where(zero.concurrence == 0.0, -0.0,
                                    zero.concurrence)
        assert (np.signbit(zero.concurrence) & (zero.concurrence == 0)).any()
        zero.alpha2 = -0.0
        zero.times = zero.times.copy()
        zero.times[0] = -0.0
        lines = [f"# schema={GRID_SCHEMA}",
                 ",".join(["t_scaled"] + [f"{c.alpha2:.17g}"
                                          for c in result.cells])]
        for i, t in enumerate(result.cells[0].times):
            lines.append(",".join([f"{t:.17g}"] + [
                f"{c.concurrence[i]:.17g}" for c in result.cells]))
        path = tmp_path / "grid.csv"
        write_grid_csv(result, str(path))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
        assert lines[1].startswith("t_scaled,-0,") and lines[2][:3] == "-0,"
        assert (result.cells[-1].concurrence == 0.0).any()

    def test_grid_output(self, tmp_path):
        result = run_sweep(replace(SMALL, gamma_s_list=(0.2,)))
        path = tmp_path / "grid.csv"
        write_grid_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# schema={GRID_SCHEMA}"
        header = lines[1].split(",")
        assert header[0] == "t_scaled"
        assert [float(h) for h in header[1:]] == [0.2, 0.5, 0.8]
        assert len(lines) == 2 + 11

    def test_grid_requires_single_gamma(self, tmp_path):
        # entries are counted, not values: a gamma_s given twice would
        # repeat every alpha2 column
        for gamma_s_list in ((0.1, 0.2), (0.2, 0.2)):
            result = run_sweep(replace(SMALL, gamma_s_list=gamma_s_list))
            with pytest.raises(ValueError, match="exactly one gamma_s"):
                write_grid_csv(result, str(tmp_path / "grid.csv"))
            assert not (tmp_path / "grid.csv").exists()


class TestRawState:
    def test_round_trip(self, tmp_path, space3):
        state = make_initial(InitialStateSpec("werner_psi", 0.3, 0.7, 0.9),
                             space3)
        path = tmp_path / "state.txt"
        save_raw_state(state, str(path))
        again = load_raw_state(str(path))
        assert np.abs(again.rho_tilde - state.rho_tilde).max() <= 1e-15

    def test_rejects_bad_trace(self, tmp_path, space3):
        state = make_initial(InitialStateSpec("psi", 0.5), space3)
        scaled = state.rho_tilde * 0.9
        lines = ["12"] + [f"{v.real:.17g} {v.imag:.17g}"
                          for v in scaled.reshape(-1)]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="trace"):
            load_raw_state(str(path))

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            load_raw_state(str(p))
        p.write_text("x\n")
        with pytest.raises(ValueError, match="dimension"):
            load_raw_state(str(p))
        p.write_text("2\n1 0\n0 0\n0 0\n")  # one entry short
        with pytest.raises(ValueError, match="expected 4"):
            load_raw_state(str(p))
        p.write_text("2\n1 0\n0 0\n0 0\nfoo bar\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_raw_state(str(p))

    def test_accepts_hermitian_psd(self, tmp_path):
        rho = np.diag([0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0,
                       0.0, 0.0, 0.0, 0.0]).astype(complex)
        lines = ["12"] + [f"{v.real:.17g} {v.imag:.17g}"
                          for v in rho.reshape(-1)]
        path = tmp_path / "ok.txt"
        path.write_text("\n".join(lines) + "\n")
        state = load_raw_state(str(path))
        assert state.rho_tilde[0, 0] == 0.5


class TestCli:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["--state", "psi", "--alpha2", "0.3", "--gamma-s", "0.1",
                   "--rate-unit", "gamma0", "--t-max", "1", "--steps", "10",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        assert "alpha2=0.3" in captured.out

    def test_rate_unit_is_mandatory(self, capsys):
        rc = main(["--alpha2", "0.3", "--gamma-s", "0.1", "--t-max", "1",
                   "--steps", "5"])
        assert rc == 2
        assert "rate-unit" in capsys.readouterr().err

    def test_infinite_esd_threshold_exits_before_any_cell(self, capsys,
                                                          monkeypatch):
        # run_sweep validates the config before its first cell
        monkeypatch.setattr(sweep, "_run_cell", None)  # must not be reached
        rc = main(["--alpha2", "0.3", "--gamma-s", "0.1", "--rate-unit",
                   "gamma0", "--esd-threshold", "inf"])
        assert rc == 2
        assert "esd_threshold" in capsys.readouterr().err

    def test_the_config_is_validated_once(self, tmp_path, monkeypatch):
        # validation builds each alpha2's initial state; run_sweep does it
        # once for the whole CLI run, and every gamma_s evolves it
        built = []
        make = sweep.make_initial

        def counting(spec, space):
            built.append(spec.alpha2)
            return make(spec, space)

        monkeypatch.setattr(sweep, "make_initial", counting)
        rc = main(["--alpha2-grid", "0.2:0.8:3", "--gamma-s", "0.1,0.2",
                   "--rate-unit", "gamma0", "--t-max", "1", "--steps", "4",
                   "--out", str(tmp_path / "rows.csv")])
        assert rc == 0
        assert built == [0.2, 0.5, 0.8]

    def test_alpha2_forms_are_exclusive(self, capsys):
        rc = main(["--alpha2", "0.3", "--alpha2-grid", "0.1:0.9:5",
                   "--gamma-s", "0.1", "--rate-unit", "gamma0"])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "state = psi\n"
            "alpha2 = 0.4\n"
            "# comment line\n"
            "gamma-s = 0.1,0.2\n"
            "rate-unit = gamma0\n"
            "t-max = 1\n"
            "steps = 10\n"
            f"out = {out}\n")
        rc = main(["--config", str(cfg), "--t-max", "2"])
        assert rc == 0
        lines = out.read_text().splitlines()
        # override applied: last sample sits at the flag's t_max
        assert float(lines[-1].split(",")[2]) == 2.0
        assert len(lines) == 2 + 2 * 11

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stat = psi\n")
        rc = main(["--config", str(cfg), "--rate-unit", "gamma0"])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_workers_is_gone(self, tmp_path, capsys):
        assert main(["--workers", "2", "--rate-unit", "gamma0"]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        rc = main(["--config", str(cfg), "--rate-unit", "gamma0"])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unset_options_keep_config_defaults(self):
        config, out, emit_grid = _parse(["--rate-unit", "gamma0"])
        assert config == SweepConfig(rate_unit="gamma0")
        assert out is None and emit_grid is False

    def test_config_file_tokens(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = -0.5\n"
                       "emit_grid = true\n"
                       "fock-cutoff = 4\n"
                       "gamma_s = 0.1,0.2\n"
                       "rate_unit = omega\n")
        config, _, emit_grid = _parse(["--config", str(cfg)])
        assert config == SweepConfig(theta=-0.5, n_fock=4,
                                     gamma_s_list=(0.1, 0.2),
                                     rate_unit="omega")
        assert emit_grid is True
        cfg.write_text("emit_grid = off\nrate_unit = gamma0\n")
        assert _parse(["--config", str(cfg)])[2] is False
        assert _parse(["--config", str(cfg), "--emit-grid"])[2] is True
        # a # starts a comment only where it opens a line or follows
        # whitespace, so a value keeps its #
        cfg.write_text("# a comment line\n"
                       "  # an indented one\n"
                       "out = run#3.csv\n"
                       "steps = 10  # ten\n"
                       "rate_unit = gamma0\t# tab\n")
        config, out, _ = _parse(["--config", str(cfg)])
        assert out == "run#3.csv"
        assert config == SweepConfig(n_steps=10, rate_unit="gamma0")

    @pytest.mark.parametrize("flags", [
        ["--step-size", "0"], ["--step-size", "-1"], ["--step-size", "nan"],
        ["--t-max", "nan"], ["--t-max", "inf"], ["--esd-threshold", "nan"],
        ["--gamma-s", "-0.5"], ["--gamma-cavity", "-1"],
        ["--rate-unit", "omega", "--omega", "-0.2", "--gamma-s", "1"],
        ["--fock-cutoff", "2"], ["--fock-cutoff", "1"],
        ["--state", "phi", "--fock-cutoff", "1"],
        ["--state", "werner", "--r", "0.5", "--fock-cutoff", "2"],
    ], ids="_".join)
    def test_configuration_errors_exit_2(self, flags, capsys):
        rc = main(["--alpha2", "0.3", "--rate-unit", "gamma0",
                   "--t-max", "1", "--steps", "4", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if "--gamma-s" in flags:  # the option set, not an internal field
            assert "gamma_s" in err and "gamma_a" not in err

    def test_step_count_beyond_the_float_range_exits_2(self, tmp_path,
                                                       capsys):
        # 1e310 RK4 steps a sample interval: the config is rejected before
        # any cell runs, without a floating-point warning (the suite turns
        # RuntimeWarning into an error)
        out = tmp_path / "rows.csv"
        rc = main(["--state", "psi", "--alpha2", "0.5", "--gamma-s", "0.2",
                   "--rate-unit", "gamma0", "--t-max", "1e300", "--steps",
                   "1", "--step-size", "1e-10", "--out", str(out)])
        assert rc == 2
        assert "float range" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="float range"):
            SweepConfig(t_max=1.0, n_steps=1, step_size=5e-324).validate()

    def test_emit_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["--alpha2-grid", "0.2:0.8:4", "--gamma-s", "0.2",
                   "--rate-unit", "gamma0", "--t-max", "1", "--steps", "8",
                   "--emit-grid", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == f"# schema={GRID_SCHEMA}"
        assert len(lines[1].split(",")) == 5

    def test_emit_grid_needs_single_gamma(self, tmp_path, capsys,
                                          monkeypatch):
        # a configuration error: rejected before any cell runs
        def no_sweep(config):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        # a value given twice is two entries, as on the rows path
        for gamma_s in ("0.1,0.2", "0.2,0.2"):
            rc = main(["--alpha2", "0.5", "--gamma-s", gamma_s,
                       "--rate-unit", "gamma0", "--t-max", "1", "--steps",
                       "4", "--emit-grid", "--out", str(tmp_path / "g.csv")])
            assert rc == 2
            captured = capsys.readouterr()
            assert "gamma_s=" not in captured.out
            assert "exactly one gamma_s" in captured.err
            assert not (tmp_path / "g.csv").exists()

    def test_emit_grid_with_a_failed_cell_exits_1(self, tmp_path, capsys):
        # as on the rows path: exit 1 with each failed cell on stderr, but
        # a grid needs every cell, so no file is written
        out = tmp_path / "g.csv"
        rc = main(["--alpha2-grid", "0.2:0.8:2", "--gamma-s", "2000",
                   "--rate-unit", "gamma0", "--step-size", "0.01",
                   "--t-max", "1", "--steps", "4", "--emit-grid",
                   "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        failed = [line for line in captured.err.splitlines()
                  if line.startswith("failed cell gamma_s=2000 alpha2=")]
        assert len(failed) == 2
        assert all("IntegrationError" in line for line in failed)
        assert "not written" in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_initial_state_file(self, tmp_path, space3):
        state = make_initial(InitialStateSpec("psi", 0.4), space3)
        raw = tmp_path / "state.txt"
        save_raw_state(state, str(raw))
        out = tmp_path / "rows.csv"
        rc = main(["--initial-state-file", str(raw), "--gamma-s", "0.1",
                   "--rate-unit", "gamma0", "--t-max", "1", "--steps", "4",
                   "--out", str(out)])
        assert rc == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[1] == "nan"  # alpha2 unknown for raw input

    def test_raw_state_beyond_the_cutoff_fails_its_cell(self, tmp_path,
                                                         capsys):
        raw = tmp_path / "state.txt"
        save_raw_state(make_initial(InitialStateSpec("psi", 0.4),
                                    build_space(2)), str(raw))
        rc = main(["--initial-state-file", str(raw), "--fock-cutoff", "2",
                   "--rate-unit", "gamma0", "--t-max", "1", "--steps", "4"])
        assert rc == 1
        assert "n_fock >= 3" in capsys.readouterr().err

    def test_failed_cell_exit_code(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["--alpha2", "0.5", "--gamma-s", "0.0,2000.0",
                   "--rate-unit", "gamma0", "--t-max", "0.1", "--steps", "4",
                   "--out", str(out)])
        assert rc == 1
        assert "failed cell" in capsys.readouterr().err
        # healthy rows are still written
        assert len(out.read_text().splitlines()) == 2 + 5

    def test_werner_state_flag(self, tmp_path):
        out = tmp_path / "rows.csv"
        rc = main(["--state", "werner", "--alpha2", "0.3", "--r", "0.8",
                   "--gamma-s", "0.05", "--rate-unit", "gamma0",
                   "--t-max", "1", "--steps", "4", "--out", str(out)])
        assert rc == 0

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "--rate-unit" in capsys.readouterr().out

    def test_bad_flag_value(self):
        assert main(["--steps", "many"]) == 2


class TestRegimeProperties:
    def test_no_emission_revivals_for_every_alpha2(self):
        # with no spontaneous emission the shared mode keeps feeding
        # entanglement back at every alpha^2
        cfg = SweepConfig(family="psi",
                          alpha2_grid=(0.1, 0.3, 0.5, 0.7, 0.9),
                          gamma_s_list=(0.0,), t_max=50.0, n_steps=1000)
        result = run_sweep(cfg)
        assert not result.failed
        for cell in result.cells:
            c = cell.concurrence
            local_min = np.nonzero(
                (c[1:-1] < c[:-2]) & (c[1:-1] < c[2:]))[0] + 1
            assert local_min.size > 0, f"alpha2={cell.alpha2}: no minimum"
            first = local_min[0]
            assert c[first + 1:].max() > 1e-4, (
                f"alpha2={cell.alpha2}: no revival above 1e-4")

    def test_low_emission_matches_no_emission_at_short_times(self):
        # weak spontaneous emission perturbs t < 5 at first order: the
        # deviation from gamma_s = 0 is linear in gamma_s, with a
        # second-order share of O(gamma_s * t_max) = 0.1 at gamma_s = 0.02
        base = SweepConfig(family="psi", alpha2_grid=(0.25, 0.5, 0.75),
                           gamma_s_list=(0.0,), t_max=5.0, n_steps=500)
        ref = run_sweep(base)

        def deviation(gamma_s):
            low = run_sweep(replace(base, gamma_s_list=(gamma_s,)))
            return max(np.abs(a.concurrence - b.concurrence).max()
                       for a, b in zip(ref.cells, low.cells))

        worst, half = deviation(0.02), deviation(0.01)
        assert half > 0.0, "gamma_s = 0.01 leaves the concurrence unchanged"
        ratio = worst / half
        assert abs(ratio - 2.0) <= 0.2, (
            f"short-time deviation {worst:.3f} at gamma_s=0.02 is {ratio:.3f} "
            f"times the one at gamma_s=0.01, not first order")
