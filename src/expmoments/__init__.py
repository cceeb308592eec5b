"""Moments of weighted sums of independent exponential and gamma random
variables: multiple independent computation engines, sharp-inequality
verification suites, named-constant solvers, and Schur-monotonicity
phase mapping."""

from .analysis import (
    centered_exp_abs_moment,
    gradient,
    laplace_abs_moment,
    logconvexity_probe,
    minimize_sphere,
    solve_p0,
    solve_pstar,
    tang_density_check,
    verify_all_equal,
    verify_gamma_extension,
    verify_hunter_exact,
    verify_mrtt,
    verify_theorem1,
)
from .engines import MomentEstimate, density_at, moment, moments
from .model import (
    GammaSumModel,
    MomentQuery,
    PartialFractionDensity,
    charfn,
    chs,
    even_moment_exact,
    gamma_mixture,
    partial_fraction_density,
    sample,
)
from .quadrature import QuadratureConfig, QuadratureError, integrate, integrate_abs_power
from .schur import (
    MajorizationPair,
    c_p_constant,
    claim_inequality_check,
    f_k,
    f_k_mc,
    failure_profile,
    m_p,
    majorizes,
    mp_representation_check,
    ostrowski_differential,
    q_k,
    schur_scan,
    t_transform,
)
from .specialfn import (
    closed_integral_iqs,
    fourier_constant,
    gaussian_abs_moment,
    gaussian_even_moment_exact,
    loggamma,
    psi,
    ratio_r,
)

__version__ = "0.1.0"
