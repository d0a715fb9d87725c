"""kvsim: structured-grid Kelvin-Voigt thermoviscoelasticity simulator.

Momentum balance coupled to a quasilinear heat equation, advanced in time
by a semi-implicit successive-approximation (Picard) scheme, with a
diagnostics engine that numerically verifies the thermodynamic structure:
energy conservation, entropy production, availability decay, the
temperature lower bound, and Gronwall continuous dependence.
"""

from .constitutive import (
    CoercivityBounds,
    MaterialParams,
    apply_isotropic,
    coercivity_bounds,
    ddot,
    dissipation_potential,
    entropy_density,
    entropy_production,
    free_energy,
    internal_energy,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DegeneracyError,
    DomainError,
    KvsimError,
    NonConvergenceError,
    UsageError,
)
from .grid import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    integrate,
    lame_operator,
    laplacian_neumann,
    lp_norm,
    sym_gradient,
    tensor_divergence,
)
from .linear_step import (
    LinearSolveReport,
    SparseOperator,
    solve_spd,
)
from .picard import (
    PicardTrace,
    SimState,
    Sources,
    Stepper,
    StepperConfig,
    Trajectory,
    run,
    steps,
)

__version__ = "0.1.0"
