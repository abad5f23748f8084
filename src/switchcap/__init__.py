"""Communication rates of completely depolarizing channels in a quantum switch.

The package has two independent routes to the same quantities: closed-form
expressions parameterized by the number of superposed causal orders and the
target dimension (``switchcap.capacity``), and an exact brute-force Kraus
simulation of the switch (``switchcap.switch``).  The command-line interface
(``switchcap.cli``) prints rate tables, emits sweep datasets and runs the
oracle-versus-closed-form verification.
"""

__version__ = "0.1.0"

from .capacity import (
    CapacityReport,
    analytic_output_state,
    asymptotic_limit,
    control_entropy,
    det_factorization_residual,
    holevo,
    output_spectrum,
    s_min,
)
from .channels import UnitaryBasis, check_completeness, depolarize, weyl_basis
from .errors import (
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    SizeGuardError,
    SwitchCapError,
)
from .linalg import (
    hermitian_spectrum,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from .switch import (
    ControlAmplitudes,
    OrderSet,
    SwitchOutput,
    all_orders,
    apply_switch,
    build_switch_kraus,
    cyclic_orders,
    cyclically_related,
    haar_random_state,
    holevo_oracle,
    random_density_matrix,
)

__all__ = [
    "CapacityReport",
    "ControlAmplitudes",
    "DimensionMismatchError",
    "DimensionOutOfRangeError",
    "DomainError",
    "InvalidSpectrumError",
    "InvalidStateError",
    "NoConvergenceError",
    "NotHermitianError",
    "OrderSet",
    "SizeGuardError",
    "SwitchCapError",
    "SwitchOutput",
    "UnitaryBasis",
    "all_orders",
    "analytic_output_state",
    "apply_switch",
    "asymptotic_limit",
    "build_switch_kraus",
    "check_completeness",
    "control_entropy",
    "cyclic_orders",
    "cyclically_related",
    "depolarize",
    "det_factorization_residual",
    "haar_random_state",
    "hermitian_spectrum",
    "holevo",
    "holevo_oracle",
    "output_spectrum",
    "partial_trace",
    "random_density_matrix",
    "s_min",
    "validate_density_matrix",
    "von_neumann_entropy",
    "weyl_basis",
]
