"""Exact symbolic checker for infinity-harmonic maps between model geometries.

The public names are loaded on first use: ``import infharm`` imports no
submodule, and ``infharm.build_space`` imports only ``spaces`` and
``exprcore``.  ``_EXPORTS`` lists every public name by its module.
"""

import importlib

_EXPORTS = {
    "calculus": (
        "ClearedExpr", "TensionReport", "energy_density", "hessian_form", "infinity_laplacian",
        "infinity_tension", "laplace_beltrami", "metric_gradient", "p_laplacian", "p_tension",
        "tension_field",
    ),
    "classify": (
        "CrossReport", "SearchOutcome", "SuiteResult", "THEOREMS", "Verdict", "cross_validate",
        "falsify_search", "matrix_lemma_condition", "predict_holomorphic", "predict_linear",
        "predict_quadratic", "run_suite",
    ),
    "exprcore": (
        "Expr", "cos_of", "evaluate", "evaluate_exact", "exp_of", "is_zero", "parse_expr",
        "partial_derivative", "sin_of", "substitute", "to_string",
    ),
    "mapspec": (
        "ComplexPolyMap", "MapSpec", "affine_map", "custom_map", "holomorphic_map", "map_digest",
        "materialize", "parse_mapspec", "quadratic_map", "realify", "serialize_mapspec",
    ),
    "spaces": ("ChristoffelTable", "ModelSpace", "build_space", "christoffel"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    """A public name or a submodule, imported on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
