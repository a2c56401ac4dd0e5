"""Synthetic clustered-cohort generator.

Produces a school-clustered longitudinal dataset (40 schools, 1200
students, outcomes at waves 3/5/7 driven by exposures measured at
waves 2/4/6) and then imposes covariate-dependent missingness on the
exposure, outcome and two baseline variables. Both the complete and
the masked datasets are returned together with the generating
coefficients, so downstream estimates can be compared against truth.

The data-generating coefficients are the source's printed values. The
missingness defaults are not: they are calibrated to the source's
published per-wave missingness table (ses 22.4 %, baseline 16.0 %,
depression 12.8/16.0/22.3 %, outcome 15.6/24.4/35.0 %, 46 % of long and
65 % of wide records incomplete), because the printed missingness
coefficients do not reproduce it. The calibration adds one student-level
propensity shared by all four masks (``SimConfig.miss_shared_sd``) and
refits the ses and baseline intercepts and the depression and outcome
intercepts and wave slopes. The printed model still runs through
``longmi sim --config`` with the printed values (noted beside each
calibrated field) and ``miss_shared_sd`` set to 0.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfig
from .rng import RngStream, expit
from .table import ColumnSpec, Dataset, ReshapeMap

OUTCOME_WAVES = (3, 5, 7)
EXPOSURE_WAVES = (2, 4, 6)
SES_LEVELS = ("1", "2", "3", "4", "5")

CATS_MAP = ReshapeMap(
    stubs=("prev_dep", "numeracy_score", "prev_sdq"),
    times=OUTCOME_WAVES,
    time_fixed=("age", "sex", "ses", "numeracy_scorew1"),
)


@dataclass(frozen=True)
class SimConfig:
    """All structural coefficients of the generator, with defaults."""

    n_schools: int = 40
    n_students: int = 1200
    # cluster-size law: truncated log-normal, then scaled to the target total
    size_log_mean: float = 3.3
    size_log_sd: float = 0.5
    size_bounds: tuple[int, int] = (8, 66)
    # demographics
    age_range: tuple[float, float] = (7.0, 10.0)
    sex_p: float = 0.5
    ses_probs: tuple[float, ...] = (0.1, 0.1, 0.2, 0.3, 0.3)
    # baseline numeracy score (linear model; ses effects vs quintile 1)
    base_intercept: float = -1.2
    base_sex: float = 0.22
    base_age: float = 0.08
    base_ses: tuple[float, ...] = (0.0, 0.01, 0.37, 0.33, 0.65)
    base_resid_sd: float = 1.0
    # depression at waves 2/4/6 (logistic mixed model)
    dep_intercept: float = -4.0
    dep_age: float = 0.31
    dep_wave: float = 0.08
    dep_sex: float = -0.52
    dep_base_score: float = -0.05
    dep_ses: tuple[float, ...] = (0.0, -0.3, -0.4, -0.57, -0.86)
    dep_school_sd: float = 0.25
    dep_student_sd: float = 1.5
    # behaviour score at waves 2/4/6 (linear mixed model)
    sdq_intercept: float = 16.0
    sdq_dep: float = 1.6
    sdq_wave: float = -0.1
    sdq_school_sd: float = 0.8
    sdq_student_sd: float = 4.0
    sdq_resid_sd: float = 3.0
    # numeracy outcome at waves 3/5/7 (linear mixed model)
    out_intercept: float = 2.0
    out_dep: float = -0.02
    out_wave: float = -0.01
    out_age: float = -0.2
    out_sex: float = 0.15
    out_base_score: float = 0.7
    out_ses: tuple[float, ...] = (0.0, -0.02, -0.10, 0.02, -0.02)
    out_sdq: float = -0.01
    out_school_sd: float = 0.05
    out_student_sd: float = 0.25
    out_resid_sd: float = 0.25
    # Missingness defaults are calibrated (module docstring); a calibrated
    # field notes its printed value. ``miss_shared_sd`` scales one
    # student-level propensity in the ses, baseline, depression and outcome
    # logits: independent masks with the published rates leave about 59 %
    # of long records incomplete, the published table 46 %.
    miss_shared_sd: float = 1.64  # printed model: 0 (no shared term)
    # missingness: ses and baseline score (logistic on age, sex)
    miss_ses_intercept: float = -2.071  # printed -1.5
    miss_ses_age: float = 0.03
    miss_ses_sex: float = 0.01
    miss_base_intercept: float = -2.816  # printed -2.1
    miss_base_age: float = 0.05
    miss_base_sex: float = 0.02
    # missingness: depression (logistic mixed model, depends on the
    # following wave's outcome and the same wave's behaviour score)
    miss_dep_intercept: float = -10.3  # printed -8.0
    miss_dep_age: float = 0.72
    miss_dep_wave: float = 0.247  # printed -0.11
    miss_dep_sex: float = 0.16
    miss_dep_base_score: float = -0.17
    miss_dep_ses: tuple[float, ...] = (0.0, -0.39, 0.27, 0.19, -0.03)
    miss_dep_next_outcome: float = -0.13
    miss_dep_sdq: float = 0.04
    miss_dep_school_sd: float = 0.01
    miss_dep_student_sd: float = 0.05
    # missingness: outcome (logistic mixed model on previous-wave exposure)
    miss_out_intercept: float = -22.424  # printed -23.0
    miss_out_age: float = 1.77
    miss_out_wave: float = 0.706  # printed 0.7
    miss_out_sex: float = 0.01
    miss_out_base_score: float = -0.70
    miss_out_ses: tuple[float, ...] = (0.0, -4.9, -1.9, 2.19, -2.35)
    miss_out_prev_dep: float = -0.25
    miss_out_prev_sdq: float = 0.11
    miss_out_school_sd: float = 0.4
    miss_out_student_sd: float = 2.0
    seed: int = 2946

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, f.type):
                raise BadConfig(f"{f.name} must be {f.type}, got {value!r}")
            if (f.name.endswith("_sd") or f.name == "seed") and value < 0:
                raise BadConfig(f"{f.name} must be >= 0")
        lo, hi = self.size_bounds
        if not (1 <= lo < hi):
            raise BadConfig("size_bounds must satisfy 1 <= lower < upper")
        if self.n_schools < 1 or self.n_students < self.n_schools:
            raise BadConfig("need n_students >= n_schools >= 1")
        if abs(sum(self.ses_probs) - 1.0) > 1e-9:
            raise BadConfig("ses_probs must sum to 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(d) - known
        if bad:
            raise BadConfig(f"unknown simulator fields: {sorted(bad)}")
        tupled = {
            k: tuple(v) if isinstance(v, list) else v for k, v in d.items()
        }
        return cls(**tupled)


def _conforms(value, kind: str) -> bool:
    """Whether ``value`` is of the ``SimConfig`` field type ``kind``: an
    int, a float (an int will do), or a tuple of them, where
    ``tuple[float, ...]`` holds one entry per ses level."""
    if kind.startswith("tuple["):
        kinds = [k.strip() for k in kind[len("tuple["):-1].split(",")]
        if kinds[-1] == "...":
            kinds = kinds[:1] * len(SES_LEVELS)
        return (isinstance(value, tuple) and len(value) == len(kinds)
                and all(map(_conforms, value, kinds)))
    numeric = int if kind == "int" else (int, float)
    return isinstance(value, numeric) and not isinstance(value, bool)


@dataclass
class SimOutput:
    complete: Dataset
    observed: Dataset
    truth: SimConfig


def _raw_cluster_sizes(rng: RngStream, cfg: SimConfig) -> np.ndarray:
    """Truncated log-normal sizes, resampled until inside the bounds."""
    lo, hi = cfg.size_bounds
    sizes = np.empty(cfg.n_schools)
    for i in range(cfg.n_schools):
        while True:
            s = float(np.exp(rng.normal(cfg.size_log_mean, cfg.size_log_sd)))
            if lo <= s <= hi:
                sizes[i] = s
                break
    return sizes


def scale_round_adjust(raw: np.ndarray, total: int) -> np.ndarray:
    """Scale sizes to the target total, round, and push the leftover
    difference onto the last cluster (keeping every size >= 1)."""
    scaled = raw * (total / raw.sum())
    sizes = np.maximum(np.rint(scaled).astype(int), 1)
    sizes[-1] += total - sizes.sum()
    while sizes[-1] < 1:
        big = int(np.argmax(sizes[:-1]))
        move = min(sizes[big] - 1, 1 - sizes[-1])
        if move <= 0:
            raise BadConfig("cannot satisfy size >= 1 with this total")
        sizes[big] -= move
        sizes[-1] += move
    return sizes


def draw_cluster_sizes(rng: RngStream, cfg: SimConfig) -> np.ndarray:
    if cfg.n_schools == 1:
        return np.array([cfg.n_students])
    return scale_round_adjust(_raw_cluster_sizes(rng, cfg), cfg.n_students)


_LONG_COLUMNS = [
    ColumnSpec("school", "continuous", "cluster-id"),
    ColumnSpec("id", "continuous", "unit-id"),
    ColumnSpec("age", "continuous", "analysis"),
    ColumnSpec("sex", "binary", "analysis"),
    ColumnSpec("ses", "categorical", "analysis", SES_LEVELS),
    ColumnSpec("numeracy_scorew1", "continuous", "analysis"),
    ColumnSpec("time", "continuous", "time"),
    ColumnSpec("prev_dep", "binary", "analysis"),
    ColumnSpec("numeracy_score", "continuous", "analysis"),
    ColumnSpec("prev_sdq", "continuous", "auxiliary"),
]


def generate_complete(rng: RngStream, cfg: SimConfig) -> Dataset:
    """Complete long data: three rows per student, outcome waves 3/5/7."""
    sizes = draw_cluster_sizes(rng, cfg)
    n = int(sizes.sum())
    school = np.repeat(np.arange(1, cfg.n_schools + 1), sizes)
    sid = np.arange(1, n + 1)

    age = rng.uniform(*cfg.age_range, size=n)
    sex = (rng.random(n) < cfg.sex_p).astype(float)
    ses = rng.choice(len(cfg.ses_probs), p=cfg.ses_probs, size=n)  # 0-based code

    ses_eff = np.asarray(cfg.base_ses)[ses]
    base = (
        cfg.base_intercept
        + cfg.base_sex * sex
        + cfg.base_age * age
        + ses_eff
        + rng.normal(0.0, cfg.base_resid_sd, n)
    )

    sch_idx = school - 1
    u_school = rng.normal(0.0, cfg.dep_school_sd, cfg.n_schools)[sch_idx]
    u_student = rng.normal(0.0, cfg.dep_student_sd, n)
    v_school = rng.normal(0.0, cfg.sdq_school_sd, cfg.n_schools)[sch_idx]
    v_student = rng.normal(0.0, cfg.sdq_student_sd, n)
    a_school = rng.normal(0.0, cfg.out_school_sd, cfg.n_schools)[sch_idx]
    a_student = rng.normal(0.0, cfg.out_student_sd, n)

    dep_ses = np.asarray(cfg.dep_ses)[ses]
    out_ses = np.asarray(cfg.out_ses)[ses]
    dep, sdq, outcome = {}, {}, {}
    for k_dep, k_out in zip(EXPOSURE_WAVES, OUTCOME_WAVES):
        logit = (
            cfg.dep_intercept
            + cfg.dep_age * age
            + cfg.dep_wave * k_dep
            + cfg.dep_sex * sex
            + cfg.dep_base_score * base
            + dep_ses
            + u_school
            + u_student
        )
        dep[k_dep] = (rng.random(n) < expit(logit)).astype(float)
        sdq[k_dep] = (
            cfg.sdq_intercept
            + cfg.sdq_dep * dep[k_dep]
            + cfg.sdq_wave * k_dep
            + v_school
            + v_student
            + rng.normal(0.0, cfg.sdq_resid_sd, n)
        )
        outcome[k_out] = (
            cfg.out_intercept
            + cfg.out_dep * dep[k_dep]
            + cfg.out_wave * k_out
            + cfg.out_age * age
            + cfg.out_sex * sex
            + cfg.out_base_score * base
            + out_ses
            + cfg.out_sdq * sdq[k_dep]
            + a_school
            + a_student
            + rng.normal(0.0, cfg.out_resid_sd, n)
        )

    n_rows = 3 * n
    values = np.empty((n_rows, len(_LONG_COLUMNS)))
    for w, (k_dep, k_out) in enumerate(zip(EXPOSURE_WAVES, OUTCOME_WAVES)):
        rows = slice(w, n_rows, 3)
        values[rows, 0] = school
        values[rows, 1] = sid
        values[rows, 2] = age
        values[rows, 3] = sex
        values[rows, 4] = ses
        values[rows, 5] = base
        values[rows, 6] = k_out
        values[rows, 7] = dep[k_dep]
        values[rows, 8] = outcome[k_out]
        values[rows, 9] = sdq[k_dep]
    return Dataset(_LONG_COLUMNS, values, shape_kind="long")


def impose_missingness(rng: RngStream, cfg: SimConfig, complete: Dataset) -> Dataset:
    """Mask ses, baseline score, exposure and outcome cells.

    Unit-level masks (ses, baseline score) apply to every row of the
    unit; wave-level masks hit single rows. One student-level propensity
    (sd ``miss_shared_sd``) enters all four logits. The mechanism reads only
    complete-data covariates, so it is row-order invariant.
    """
    wave1 = complete.take(complete.column("time") == OUTCOME_WAVES[0])
    n = wave1.n_rows
    age = wave1.column("age")
    sex = wave1.column("sex")
    ses = wave1.column("ses").astype(int)
    base = wave1.column("numeracy_scorew1")
    school = wave1.column("school").astype(int) - 1
    n_sch = int(school.max()) + 1

    dep = {}
    sdq = {}
    out = {}
    for k_dep, k_out in zip(EXPOSURE_WAVES, OUTCOME_WAVES):
        rows = complete.take(complete.column("time") == k_out)
        dep[k_dep] = rows.column("prev_dep")
        sdq[k_dep] = rows.column("prev_sdq")
        out[k_out] = rows.column("numeracy_score")

    shared = rng.normal(0.0, cfg.miss_shared_sd, n)
    m_ses = rng.random(n) < expit(
        cfg.miss_ses_intercept
        + cfg.miss_ses_age * age
        + cfg.miss_ses_sex * sex
        + shared
    )
    m_base = rng.random(n) < expit(
        cfg.miss_base_intercept
        + cfg.miss_base_age * age
        + cfg.miss_base_sex * sex
        + shared
    )

    w_school = rng.normal(0.0, cfg.miss_dep_school_sd, n_sch)[school]
    w_student = rng.normal(0.0, cfg.miss_dep_student_sd, n)
    dep_ses_eff = np.asarray(cfg.miss_dep_ses)[ses]
    m_dep = {}
    for k_dep, k_out in zip(EXPOSURE_WAVES, OUTCOME_WAVES):
        logit = (
            cfg.miss_dep_intercept
            + cfg.miss_dep_age * age
            + cfg.miss_dep_wave * k_dep
            + cfg.miss_dep_sex * sex
            + cfg.miss_dep_base_score * base
            + dep_ses_eff
            + cfg.miss_dep_next_outcome * out[k_out]
            + cfg.miss_dep_sdq * sdq[k_dep]
            + w_school
            + w_student
            + shared
        )
        m_dep[k_dep] = rng.random(n) < expit(logit)

    x_school = rng.normal(0.0, cfg.miss_out_school_sd, n_sch)[school]
    x_student = rng.normal(0.0, cfg.miss_out_student_sd, n)
    out_ses_eff = np.asarray(cfg.miss_out_ses)[ses]
    m_out = {}
    for k_dep, k_out in zip(EXPOSURE_WAVES, OUTCOME_WAVES):
        logit = (
            cfg.miss_out_intercept
            + cfg.miss_out_age * age
            + cfg.miss_out_wave * k_out
            + cfg.miss_out_sex * sex
            + cfg.miss_out_base_score * base
            + out_ses_eff
            + cfg.miss_out_prev_dep * dep[k_dep]
            + cfg.miss_out_prev_sdq * sdq[k_dep]
            + x_school
            + x_student
            + shared
        )
        m_out[k_out] = rng.random(n) < expit(logit)

    mask = complete.mask.copy()
    j_ses = complete.col_index("ses")
    j_base = complete.col_index("numeracy_scorew1")
    j_dep = complete.col_index("prev_dep")
    j_out = complete.col_index("numeracy_score")
    for w, (k_dep, k_out) in enumerate(zip(EXPOSURE_WAVES, OUTCOME_WAVES)):
        rows = slice(w, complete.n_rows, 3)
        mask[rows, j_ses] = m_ses
        mask[rows, j_base] = m_base
        mask[rows, j_dep] = m_dep[k_dep]
        mask[rows, j_out] = m_out[k_out]
    return Dataset(
        complete.columns, complete.values, mask, shape_kind="long", validate=False
    )


def simulate(rng: RngStream, cfg: SimConfig | None = None) -> SimOutput:
    cfg = cfg or SimConfig()
    complete = generate_complete(rng, cfg)
    observed = impose_missingness(rng, cfg, complete)
    return SimOutput(complete, observed, cfg)
