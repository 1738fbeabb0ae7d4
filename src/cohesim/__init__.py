"""Finite-element simulator for two visco-elastic bodies coupled across a
cohesive interface (anti-plane shear): implicit incremental time stepping
with a history-variable complementarity update and a full energy audit."""

from .assembly import DiscreteOperators, LoadModel, Materials, assemble, load_vector
from .audit import (
    EnergyLedger,
    KKTReport,
    TractionField,
    energy_ledger,
    kkt_report,
    traction_extraction,
)
from .evolution import (
    EvolutionError,
    EvolutionState,
    Scenario,
    TrajectoryRecord,
    regularize_initial_data,
    run,
    trajectory_distance,
)
from .law import (
    CohesiveLaw,
    HypothesisError,
    LawConstants,
    PrototypeEnvelope,
    TabulatedEnvelope,
    law_constants,
)
from .mesh import (
    InterfaceMesh,
    MeshError,
    build_rectangle_mesh,
    estimate_trace_constant,
    load_mesh,
    scaled,
)
from .step import (
    ConvexityError,
    StepProblem,
    StepResult,
    StepSolverError,
    StepWorkspace,
    convexity_guard,
    incremental_energy,
    solve_static,
    solve_step,
)

__version__ = "0.1.0"
