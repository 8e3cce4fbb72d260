"""Exact open-system dynamics of two qubits sharing a damped cavity mode.

The mode is kept as an explicit, truncated oscillator, so the qubit pair
plus mode evolve under a single Lindblad generator and non-Markovian memory
effects (entanglement death, revival, transfer to the mode) come out of the
integration rather than an approximation. Public surface:

    operators     parameter set, composite space, Hamiltonian, ladder ops
    dynamics      Lindblad generator, invariant-checked integrator
    entanglement  partial trace, Wootters concurrence (two paths)
    states        initial-state families
    sweep         grid sweeps, ESD detection, CSV and raw-state formats
    cli           command-line front end
"""
from .dynamics import (
    FullState,
    IntegrationDiagnostics,
    IntegrationError,
    Trajectory,
    evolve,
    liouvillian_matrix,
)
from .entanglement import (
    ConcurrenceReport,
    X_TOLERANCE,
    concurrence_general,
    concurrence_x_state,
    independent_decay_concurrence,
    independent_decay_death_time,
    partial_trace_cavity,
    x_form_deviation,
)
from .operators import (
    CompositeSpace,
    SystemParams,
    annihilation,
    build_hamiltonian,
    build_space,
    creation,
    number_operator,
    sigma,
)
from .states import InitialStateSpec, make_initial
from .sweep import (
    CellResult,
    SweepConfig,
    SweepResult,
    detect_esd_intervals,
    load_raw_state,
    run_sweep,
    save_raw_state,
    write_grid_csv,
    write_rows_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CellResult",
    "CompositeSpace",
    "ConcurrenceReport",
    "FullState",
    "InitialStateSpec",
    "IntegrationDiagnostics",
    "IntegrationError",
    "SweepConfig",
    "SweepResult",
    "SystemParams",
    "Trajectory",
    "X_TOLERANCE",
    "annihilation",
    "build_hamiltonian",
    "build_space",
    "concurrence_general",
    "concurrence_x_state",
    "creation",
    "detect_esd_intervals",
    "evolve",
    "independent_decay_concurrence",
    "independent_decay_death_time",
    "liouvillian_matrix",
    "load_raw_state",
    "make_initial",
    "number_operator",
    "partial_trace_cavity",
    "run_sweep",
    "save_raw_state",
    "sigma",
    "write_grid_csv",
    "write_rows_csv",
    "x_form_deviation",
]
