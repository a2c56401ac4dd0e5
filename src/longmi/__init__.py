"""Multiple imputation for longitudinal and clustered data."""

__version__ = "0.1.0"

from .table import (  # noqa: F401
    ColumnSpec,
    Dataset,
    ReshapeMap,
    available_case_filter,
    dummy_expand,
    incomplete_fraction,
    read_csv,
    reshape_long_to_wide,
    reshape_wide_to_long,
    write_csv,
)
from .rng import (  # noqa: F401
    MvnParams,
    RngStream,
    conditional_mvn,
    inv_wishart_draw,
    mvn_draw,
    trunc_normal_draw,
)
from .simulate import SimConfig, SimOutput, simulate  # noqa: F401
from .formula import ModelFormula, parse_formula  # noqa: F401
from .fitters import (  # noqa: F401
    GlmFit,
    LinearDraw,
    fit_linear_and_draw,
    fit_logistic,
    fit_polr,
)
from .lmm import LmmFit, fit_lmm, fit_lmm_arrays  # noqa: F401
from .jm import (  # noqa: F401
    ChainTrace,
    JmSpec,
    autocorr,
    decode_latent,
    encode_latent,
    run_jm,
)
from .fcs import (  # noqa: F401
    LevelsSpec,
    MethodVector,
    PredictorMatrix,
    default_predictor_matrix,
    impute_univariate,
    mtw_predictor_matrix,
    run_fcs,
)
from .pooling import PooledResult, pool  # noqa: F401
from .stack import ImputedStack  # noqa: F401
from .methods import METHOD_NAMES, build_and_run, detect_map  # noqa: F401
