"""Finite-dimensional simulator for events in isolated open quantum systems.

States restricted to a strictly shrinking filtration of future observable
algebras develop non-trivial centers of their centralizers; the minimal
projections of those centers are the events, sampled by the Born rule, and
the collapsed branches drive a non-commutative branching process.  The
package covers the operator-algebra kernel, the repeated-interaction chain
models realizing the shrinking filtration, history sampling and enumeration,
the path measure with its consistency sum rule and entropy diagnostics,
projective recording of events by physical quantities, and indirect
(non-demolition and weak) measurement statistics.
"""

from .algebra import (
    StarAlgebra,
    center,
    commutant,
    contains,
    from_span,
    full_matrix_algebra,
    generate_algebra,
    minimal_projections,
    minimal_projections_retry,
    relative_commutant,
    scalar_algebra,
    span_equal,
)
from .chain import ChainModel, NestingReport, build_gate, chain_initial_state, system_density
from .errors import EthsimError
from .histories import (
    EprReport,
    History,
    HistoryStep,
    HistoryTree,
    check_sum_rule,
    enumerate_tree,
    epr_demo,
    history_measure,
    missing_information,
    missing_information_per_event,
    relative_entropy_vs_reversed,
    sample_histories,
    sample_history,
)
from .indirect import (
    JumpTrajectory,
    MeasurementProtocol,
    NdmReport,
    NdmScenario,
    frequencies,
    ndm_experiment,
    purification_metric,
    run_protocol,
    weak_measurement_trajectories,
    weak_measurement_trajectory,
)
from .linalg import (
    HermitianEigensystem,
    embed_site_operator,
    hermitian_eig,
    operator_norm,
    partial_trace,
)
from .recording import (
    PhysicalQuantity,
    RecordingReport,
    check_recording_conditions,
    probe_pointer_quantity,
    record_event,
    represent_at,
    verify_result_dichotomy,
)
from .scenario import Scenario, build_model, build_ndm, parse_scenario, resolve_scenario
from .states import (
    EventDetection,
    EventFamily,
    State,
    born_weights,
    centralizer_of_state,
    center_of_centralizer,
    collapse,
    conditional_expectation,
    detect_event,
    dist_to_event_algebra,
    nearest_projection_in_event,
)

__version__ = "0.1.0"
