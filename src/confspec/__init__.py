"""Numerical laboratory for conformally covariant operator spectra.

Builds rotationally symmetric conformal deformations of round spheres that
grow a long cylindrical nose, assembles the conformal Laplacian, the
fourth-order Paneitz operator and the surface Dirac operator on them, and
solves the resulting banded generalized eigenproblems.  The headline
experiment tracks the scale-invariant product lambda_1^+ * vol^(k/n) along
the nose-length family.
"""

from confspec.grid import (
    BandedSymmetric,
    RadialGrid,
    assemble_weak_form,
    make_grid,
)
from confspec.geometry import (
    ConformalProfile,
    WarpedData,
    constant_profile,
    profile_L,
    volume,
    warped_reparametrize,
)
from confspec.operators import (
    AssembledOperator,
    ModeSpec,
    OperatorKind,
    conformal_laplacian,
    covariance_reduce,
    cylinder_threshold,
    dirac_operator,
    intrinsic_assemble,
    make_mode,
    mode_multiplicity,
    paneitz_constants,
    paneitz_operator,
)
from confspec.eigensolve import (
    EigenPair,
    SpectrumReport,
    aggregate,
    solve_generalized,
)

__version__ = "0.1.0"
