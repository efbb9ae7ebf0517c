"""Numerical calculus on time scales with verified integral-inequality bounds.

The core objects are index-based: a TimeScale is a strictly increasing
finite point set, grid functions carry their scale, and every operator
(jump, graininess, delta derivative, Cauchy integral, scale exponential)
works on indices into that set.  On top of the one- and two-dimensional
calculus sit four explicit bound constructions of Gronwall type, extremal
witness recursions that meet them with equality, and a seeded verification
driver plus CLI that confront bounds with witnesses on concrete scales.
"""

from .bounds import (BoundCase, BoundInputs, BoundReport, ExponentVariant,
                     IntegrodynamicInputs, KernelInputs, PointwiseInputs,
                     SystemInputs, bound_kernel_variants, check_hypotheses,
                     compute_bound, gronwall_2d)
from .config import (FnSpec, ScaleSpec, classical_forms, parse_fn, parse_scale,
                     realize_1d, realize_2d, realize_kernel, realize_scalar)
from .core import (GridFn1, TimeScale, antiderivative, cauchy_integral,
                   delta_derivative, dense_mesh, explicit_scale, h_grid,
                   integer_segment, q_grid, union_scales)
from .errors import (ConfigError, DomainError, RegressivityError,
                     ScaleMismatchError, TscaleError)
from .exponential import (RegressivityReport, circle_minus, circle_plus,
                          comparison_bound, exp_fn, regressivity)
from .grid2d import (GridFn2, KernelOracle, RectPartition, TimeScale2D,
                     darboux_sums, double_integral, mixed_partial,
                     partial_delta, running_double_integral, running_integral)
from .verify import InstanceSpec, VerifySummary, WitnessMode, run_verification
from .witnesses import (witness_comparison, witness_integrodynamic,
                        witness_kernel, witness_pointwise, witness_system)

__version__ = "0.1.0"

__all__ = [
    "BoundCase", "BoundInputs", "BoundReport", "ExponentVariant",
    "IntegrodynamicInputs", "KernelInputs", "PointwiseInputs", "SystemInputs",
    "bound_kernel_variants", "check_hypotheses", "compute_bound", "gronwall_2d",
    "FnSpec", "ScaleSpec", "classical_forms", "parse_fn", "parse_scale",
    "realize_1d", "realize_2d", "realize_kernel", "realize_scalar",
    "GridFn1", "TimeScale", "antiderivative", "cauchy_integral",
    "delta_derivative", "dense_mesh", "explicit_scale", "h_grid",
    "integer_segment", "q_grid", "union_scales",
    "ConfigError", "DomainError", "RegressivityError", "ScaleMismatchError",
    "TscaleError",
    "RegressivityReport", "circle_minus", "circle_plus", "comparison_bound",
    "exp_fn", "regressivity",
    "GridFn2", "KernelOracle", "RectPartition", "TimeScale2D", "darboux_sums",
    "double_integral", "mixed_partial", "partial_delta",
    "running_double_integral", "running_integral",
    "InstanceSpec", "VerifySummary", "WitnessMode", "run_verification",
    "witness_comparison", "witness_integrodynamic", "witness_kernel",
    "witness_pointwise", "witness_system",
    "__version__",
]
