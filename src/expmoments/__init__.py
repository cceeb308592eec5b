"""Moments of weighted sums of independent exponential and gamma random
variables: multiple independent computation engines, sharp-inequality
verification suites, named-constant solvers, and Schur-monotonicity
phase mapping.

The names below, and the submodules that define them, are resolved on
first access (PEP 562), so importing one submodule, such as
`expmoments.engines`, loads only what that submodule imports."""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "analysis": "centered_exp_abs_moment gradient laplace_abs_moment logconvexity_probe minimize_sphere solve_p0"
    " solve_pstar tang_density_check verify_all_equal verify_gamma_extension verify_hunter_exact verify_mrtt"
    " verify_theorem1",
    "engines": "MomentEstimate density_at moment moments",
    "model": "GammaSumModel MomentQuery PartialFractionDensity charfn chs even_moment_exact gamma_mixture"
    " partial_fraction_density sample",
    "quadrature": "QuadratureError integrate integrate_abs_power",
    "schur": "MajorizationPair c_p_constant claim_inequality_check f_k f_k_mc failure_profile m_p majorizes"
    " mp_representation_check ostrowski_differential q_k schur_scan t_transform",
    "specialfn": "closed_integral_iqs fourier_constant gaussian_abs_moment gaussian_even_moment_exact loggamma psi"
    " ratio_r",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
