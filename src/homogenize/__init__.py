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
    h_strictly_decreasing,
    k5_via_H,
)
from .distributions import (
    DistributionSpec,
    DualityProbe,
    Moments,
    PowerSeries,
    constant,
    dual,
    duality_residual_series,
    load_distribution,
    moments,
    recover_relations_order4,
    recover_relations_order6,
    save_distribution,
    scale,
    self_dual_scale,
    three_value,
    two_component,
)
from .enumerator import (
    EnumeratedOrder,
    PathFamily,
    enumerate_families,
    enumerate_order,
)
from .errors import CapabilityError, CapacityError, SolverError
from .expansion import (
    ExpansionCoefficients,
    SeriesResult,
    bruggeman_coefficients,
    coefficients,
    max_order,
    remainder_bound,
    sigma_e_series,
)
from .kernel import (
    KernelTable,
    build_kernel_table,
    channel_array,
    gamma,
    get_kernel_table,
    lattice_power_sum,
    load_table,
    save_table,
)
from .lattice import compositions, path_cumulant, path_moment
from .resistor import (
    SigmaEstimate,
    TorusNetwork,
    estimate_sigma_e,
    sample_network,
    solve_corrector,
)

__version__ = "0.1.0"
