"""Effective conductivity of random wire networks on the cubic lattice.

Exact disorder-moment expansion of the effective conductivity (orders 2..5
in any dimension, order 6 in 2D), the constants entering it, a brute-force
path enumerator that re-derives the coefficients, the Bruggeman
effective-medium approximation, 2D duality checks, and a resistor-network
Monte Carlo oracle on finite tori.
"""

from .bruggeman import (
    BruggemanResult,
    ComparisonReport,
    bruggeman_series,
    compare,
    solve_bruggeman,
)
from .constants import (
    DimensionConstants,
    dimension_constants,
    k5_via_H,
)
from .distributions import (
    DistributionSpec,
    DualityProbe,
    Moments,
    constant,
    dual,
    duality_residual_series,
    load_distribution,
    moments,
    recover_relations,
    scale,
    self_dual_scale,
    three_value,
    two_component,
)
from .enumerator import (
    EnumeratedOrder,
    PathFamily,
    enumerate_order,
)
from .errors import CapabilityError, CapacityError, SolverError
from .expansion import (
    ExpansionCoefficients,
    SeriesResult,
    bruggeman_coefficients,
    coefficients,
    max_order,
    sigma_e_series,
)
from .kernel import (
    KernelTable,
    build_kernel_table,
    channel_array,
    gamma,
    get_kernel_table,
    lattice_power_sum,
)
from .lattice import path_cumulant
from .resistor import (
    SigmaEstimate,
    TorusNetwork,
    estimate_sigma_e,
    sample_network,
    solve_corrector,
)

__version__ = "0.1.0"
