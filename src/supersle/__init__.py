"""Stochastic evolutions in N=1 superspace with superconformal field theory checks.

Each exported name is imported from its defining module on first use
(PEP 562), so ``import supersle`` loads no submodule and no sympy.
"""

import importlib

_EXPORTS = {
    "grassmann": (
        "EXACT", "FLOAT", "CoefficientRing", "GrassmannNumber",
        "NotInvertible", "make_generator",
    ),
    "superfield": (
        "LaurentSuperfunction", "ParityError", "SuperPoint",
        "is_superconformal",
    ),
    "ns_algebra": (
        "AlgebraElement", "CutoffOverflow", "G", "L", "Mode", "ModuleParams",
        "VermaModule", "VermaVector", "bracket", "is_singular",
        "is_singular_level2", "params_from_kappa_ns",
        "params_from_kappa_virasoro", "pbw_words", "quotient_projection",
        "singular_condition_residual", "singular_vector_32",
        "singularity_report", "virasoro_level2_vector",
    ),
    "walk": (
        "SdeSystem", "WalkSpec", "diffusion_from_spec", "drift_from_spec",
        "drift_generator", "drift_vector", "martingale_drift",
        "match_singular", "reduced_drift_vector", "sde_system", "spec_32",
        "spec_32alt", "spec_virasoro", "standard_spec",
    ),
    "sde": (
        "BrownianPath", "DenominatorVanishes", "HullRaster", "LoewnerResult",
        "SuperPath", "SwallowedPoint", "closed_form_32", "closed_form_32_map",
        "closed_form_32alt", "closed_form_32alt_map", "conservation_check_32",
        "convergence_32", "convergence_32alt", "euler_maruyama",
        "loewner_flow", "mc_martingale", "pathwise_convergence",
        "supertrace_hull", "write_json_report", "write_pgm",
        "write_superpath_csv",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
