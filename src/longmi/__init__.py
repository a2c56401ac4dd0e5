"""Multiple imputation for longitudinal and clustered data.

The public names load their module on first access (PEP 562), so
``import longmi`` runs no submodule.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
    "table": "ColumnSpec Dataset ReshapeMap available_case_filter dummy_expand"
             " incomplete_fraction read_csv reshape_long_to_wide reshape_wide_to_long write_csv",
    "rng": "MvnParams RngStream conditional_mvn inv_wishart_draw mvn_draw trunc_normal_draw",
    "simulate": "SimConfig SimOutput simulate",
    "formula": "ModelFormula parse_formula",
    "fitters": "GlmFit LinearDraw fit_linear_and_draw fit_logistic fit_polr",
    "lmm": "LmmFit fit_lmm fit_lmm_arrays",
    "jm": "ChainTrace JmSpec autocorr decode_latent encode_latent run_jm",
    "fcs": "LevelsSpec MethodVector PredictorMatrix default_predictor_matrix"
           " impute_univariate mtw_predictor_matrix run_fcs",
    "pooling": "PooledResult pool",
    "stack": "ImputedStack",
    "methods": "METHOD_NAMES build_and_run detect_map",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule ``simulate`` must not rebind the function
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def deferred(name):
    """A stand-in for ``longmi.<name>`` that loads its module on the first
    call. A module binds a callee this way to keep it as an attribute,
    where perfbench's tracer wraps it, without importing it up front."""

    def call(*args, **kwargs):
        return getattr(sys.modules[__name__], name)(*args, **kwargs)

    return call
