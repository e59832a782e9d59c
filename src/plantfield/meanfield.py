"""Piecewise-constant surrogate of the competition load and its flow.

The time axis is cut into stages of length dt.  On each stage the
population-averaged competition potential felt by a probe plant is
frozen and fitted, as a function of the probe's initial data, by least
squares over polynomial features of bounded variable transforms.  The
fitted stages combine in closed form into an exponentially weighted
time integral, which plugs into the growth kernel to give the
approximate limiting flow

    flow(t, s, theta) = s_m (s/s_m)^{e^{-gamma t}}
                        (S/s_m)^{1 - e^{-gamma t} - I(t, s, theta)}

where I is the reconstructed potential integral.  Training is
recursive: the sizes that feed stage k's Monte-Carlo targets are
themselves advanced with the flow built from stages 0..k-1.
"""

from __future__ import annotations

import ctypes
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

import numpy as np

from .initial import Mu0Config, SurfaceParams, sample_mu0, samples_to_state
from .model import ModelParams, _domain_checks, _raise_first_offender, _require_positive
from .population import PopulationState, _cross_kernel, _kernel_block
from .textio import format_row, write_csv, write_json

__all__ = [
    "FeatureSpec",
    "MeanFieldModel",
    "PotentialStage",
    "TrainConfig",
    "export_r2_csv",
    "feature_map",
    "fit_stage",
    "flow_eval_many",
    "load_model",
    "mc_potential",
    "model_from_dict",
    "model_to_dict",
    "monomial_exponents",
    "n_monomials",
    "polynomial_features",
    "save_model",
    "stage_potential_eval",
    "train",
]

MODEL_FORMAT = "plantfield-meanfield-model"
MODEL_VERSION = 2

# Sub-stream tags for the training draws.
_SET_CLOUD = 0
_SET_TRAIN = 1
_SET_TEST = 2

# Most stages one training may fit: each stage is a Monte-Carlo pass over
# the cloud, so T / dt beyond this would never finish.
_MAX_STAGES = 10_000


def n_monomials(k: int, d: int) -> int:
    """Number of k-variable monomials of total degree at most d."""
    return math.comb(k + d, k)


@lru_cache(maxsize=None)
def monomial_exponents(k: int, d: int) -> tuple:
    """Exponent tuples of all k-variable monomials with total degree <= d.

    Order: the last variable's exponent varies slowest; within each of
    its values the first k-1 variables recurse the same way.  For two
    variables and degree 2 this yields
    (0,0), (1,0), (2,0), (0,1), (1,1), (0,2) — i.e. the feature list
    (1, x1, x1^2, x2, x1*x2, x2^2).
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if k == 1:
        return tuple((e,) for e in range(d + 1))
    out = []
    for e_last in range(d + 1):
        for rest in monomial_exponents(k - 1, d - e_last):
            out.append(rest + (e_last,))
    return tuple(out)


@lru_cache(maxsize=None)
def _exponent_rows(k: int, d: int) -> np.ndarray:
    """``monomial_exponents(k, d)`` as a read-only (k, n_monomials) array."""
    rows = np.array(monomial_exponents(k, d)).T
    rows.flags.writeable = False
    return rows


def polynomial_features(values, d: int) -> np.ndarray:
    """All monomials of total degree <= d of the given variables.

    ``values`` is a batch (n, k); the result is (n, n_monomials), columns
    in ``monomial_exponents`` order.  Powers are repeated products, so
    x^e carries at most e - 1 roundings.
    """
    pts = np.asarray(values, dtype=float)
    if pts.ndim != 2:
        raise ValueError("values must have shape (n, k)")
    n, k = pts.shape
    exps = _exponent_rows(k, d)
    # Power tables: pows[j, e] = pts[:, j] ** e, each a contiguous row.
    pows = np.empty((k, d + 1, n))
    pows[:, 0] = 1.0
    for e in range(1, d + 1):
        np.multiply(pows[:, e - 1], pts.T, out=pows[:, e])
    cols = pows[0, exps[0]]
    for j in range(1, k):
        cols *= pows[j, exps[j]]
    return np.ascontiguousarray(cols.T)


@dataclass
class FeatureSpec:
    """The feature frame of a model's stages: the variable transforms and
    the polynomial degrees of every stage's regression.

    Stage 0 regresses on three variables (size and position) at degree
    ``d3``; every later stage on five (adding cap and rate) at degree
    ``d5``.  Positions are centred at ``center`` and scaled by ``length``;
    ``dt`` is the stage length.
    """

    center: np.ndarray
    length: float
    dt: float
    d3: int
    d5: int
    params: ModelParams

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.center.shape != (2,):
            raise ValueError("center must be a 2-vector")
        if not np.isfinite(self.center).all():
            raise ValueError(f"center must be finite, got {self.center.tolist()!r}")
        _require_positive(length=self.length, dt=self.dt)
        if not all(isinstance(d, int) and d >= 0 for d in (self.d3, self.d5)):
            raise ValueError(
                f"degrees must be nonnegative integers, got d3={self.d3!r}, d5={self.d5!r}"
            )

    def n_features(self, k: int) -> int:
        """Length of stage k's coefficient vector."""
        return n_monomials(5, self.d5) if k else n_monomials(3, self.d3)


def feature_map(spec: FeatureSpec, k: int, atoms: PopulationState) -> np.ndarray:
    """Stage k's features of probes' initial data: polynomial in bounded
    transforms.

    ``atoms`` holds n plants; the result is (n, ``spec.n_features(k)``).
    The transformed variables are log(s/s_m), arctan of each centered and
    scaled position coordinate and, after stage 0, log(S/s_m) and
    e^{-gamma dt}; stage 0 ignores S and gamma.  Every monomial is damped
    by the spatial factor 1 / (1 + |x - center|^2 / sigma_x^2).
    """
    p = spec.params
    x = atoms.positions
    center = spec.center[None, :]
    dx = x - center
    vars_ = [
        np.log(atoms.sizes / p.s_m),
        np.arctan(dx[:, 0] / spec.length),
        np.arctan(dx[:, 1] / spec.length),
    ]
    if k:
        vars_.append(np.log(atoms.caps / p.s_m))
        vars_.append(np.exp(-atoms.rates * spec.dt))
    V = np.stack(vars_, axis=1)
    feats = polynomial_features(V, spec.d5 if k else spec.d3)
    cauchy = _kernel_block(x, center, p.sigma_x, np.empty((x.shape[0], 1)))[:, 0]
    return feats * cauchy[:, None]


def mc_potential(
    params: ModelParams,
    s,
    x,
    cloud_sizes: np.ndarray,
    cloud_positions: np.ndarray,
) -> np.ndarray:
    """Cloud-averaged competition potential on probes s (n,) at x (n, 2).

    Returns (1/N) sum_j C(s, s'_j, |x - x'_j|) where the primes run
    over the cloud atoms; shape (n,), from ``population._cross_kernel``,
    which builds no (n, N) kernel.  A non-finite column, then a size outside
    the model's domain, raises ``ValueError`` naming its first bad row.
    """
    columns = s, x, cloud_sizes, cloud_positions = [
        np.asarray(col, dtype=float) for col in (s, x, cloud_sizes, cloud_positions)
    ]
    if cloud_sizes.size == 0:
        raise ValueError("cloud must be nonempty")
    if (
        s.ndim != 1
        or x.shape != (s.shape[0], 2)
        or cloud_positions.shape != (cloud_sizes.size, 2)
    ):
        raise ValueError("positions must have shape (n, 2) matching sizes")
    for name, col in zip(("s", "x", "cloud_sizes", "cloud_positions"), columns):
        bad = np.argwhere(~np.isfinite(col))
        if bad.size:
            raise ValueError(f"{name} must be finite; row {bad[0, 0]} is not")
    _raise_first_offender("probe", _domain_checks(params, size=s))
    _raise_first_offender("cloud atom", _domain_checks(params, size=cloud_sizes))
    p = params
    row = _cross_kernel(x, cloud_positions, p.sigma_x)(
        np.log(s / p.s_m), np.log(cloud_sizes / p.s_m), p.sigma_r
    )
    return row / (2.0 * p.R_M * cloud_sizes.shape[0])


@dataclass
class PotentialStage:
    """One fitted stage: its coefficients and fit quality.  Its features
    come from the model's frame and its position among the stages."""

    beta: np.ndarray
    r2_train: float
    r2_test: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta must be finite")
        for name in ("r2_train", "r2_test"):
            v = float(getattr(self, name))
            if not math.isnan(v) and v > 1.0 + 1e-12:
                raise ValueError(f"{name} cannot exceed 1")
            setattr(self, name, v)


def _r2(targets: np.ndarray, predictions: np.ndarray) -> float:
    """Coefficient of determination; NaN when the targets are constant.

    Constancy is judged against accumulation roundoff, not exact zero:
    summing n identical values can leave the mean half an ulp off, which
    would otherwise turn 0/0 into an arbitrary finite ratio.
    """
    targets = np.asarray(targets, dtype=float)
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    scale = max(1.0, float(np.max(np.abs(targets))))
    if ss_tot <= targets.size * (np.finfo(float).eps * scale) ** 2:
        return float("nan")
    ss_res = float(np.sum((targets - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


def _clamped(F: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The fitted combination F @ beta of features F (n, m), projected into [0, 1]."""
    return np.clip(F @ beta, 0.0, 1.0)


def fit_stage(training, testing=None) -> PotentialStage:
    """Least-squares fit of one stage's potential targets.

    ``training`` and ``testing`` are (features, targets) pairs where the
    features are the stage's ``feature_map`` of the probes.  The
    coefficient vector is the minimum-norm least-squares solution, so
    rank-deficient designs (e.g. all probes identical) are handled
    without pivoting choices.  Fit quality is measured on the clamped
    predictions, matching how the stage is used.
    """
    F, y = training
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("training set must be nonempty")
    beta, *_ = np.linalg.lstsq(F, y, rcond=None)
    if not np.all(np.isfinite(beta)):
        raise np.linalg.LinAlgError("fitted beta is not finite")
    r2_train = _r2(y, _clamped(F, beta))
    r2_test = float("nan")
    if testing is not None:
        r2_test = _r2(testing[1], _clamped(testing[0], beta))
    return PotentialStage(beta=beta, r2_train=r2_train, r2_test=r2_test)


def stage_potential_eval(
    spec: FeatureSpec, k: int, stage: PotentialStage, atoms: PopulationState
) -> np.ndarray:
    """Clamped potential of ``atoms`` under ``stage``, the model's stage k:
    the fitted combination projected into [0,1]; shape (n,)."""
    return _clamped(feature_map(spec, k, atoms), stage.beta)


@dataclass
class MeanFieldModel:
    """The trained surrogate: M fitted stages, their one feature frame, and
    the training context."""

    stages: list
    spec: FeatureSpec
    T: float
    mu0_cfg: Mu0Config
    n_cloud: int
    seed: int

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a model needs at least one stage")
        horizon = len(self.stages) * self.spec.dt
        if not abs(horizon - self.T) <= 1e-9 * max(1.0, horizon):  # NaN, inf fail
            raise ValueError(f"stage count times dt must equal T, got T={self.T!r}")
        for k, st in enumerate(self.stages):
            m = self.spec.n_features(k)
            if st.beta.shape != (m,):
                raise ValueError(
                    f"stage {k}: beta must have length {m}, got shape {st.beta.shape}"
                )

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def params(self) -> ModelParams:
        """The model's parameters: those of its initial law."""
        return self.mu0_cfg.params


def _stage_weights(dt: float, n_stages: int, t, gamma) -> np.ndarray:
    """Exponential time weights of each stage's contribution at time t.

    For the stage [t_k, t_{k+1}) with t_k = k dt the weight is
    e^{gamma (min(t, t_{k+1}) - t)} - e^{gamma (min(t, t_k) - t)}:
    1 - e^{gamma (t_k - t)} while the stage is in progress at t,
    e^{gamma (t_{k+1} - t)} - e^{gamma (t_k - t)} once it is completed,
    and 0 before it starts.  The weights sum to 1 - e^{-gamma t} when
    every stage contributes.  Shape (n_stages,) + broadcast(t, gamma).
    """
    t_b = np.atleast_1d(np.asarray(t, dtype=float))
    g_b = np.atleast_1d(np.asarray(gamma, dtype=float))
    t_b, g_b = np.broadcast_arrays(t_b, g_b)
    k = np.arange(n_stages).reshape((n_stages,) + (1,) * t_b.ndim)
    start = np.minimum(t_b, k * dt)
    end = np.minimum(t_b, (k + 1) * dt)
    return np.exp(g_b * (end - t_b)) - np.exp(g_b * (start - t_b))


def _stage_features(spec: FeatureSpec, k: int, atoms: PopulationState, features):
    """Stage k's feature matrix of ``atoms``, kept in ``features`` ({arity:
    matrix} of these same data): every stage after the first shares one."""
    arity = 5 if k else 3
    if arity not in features:
        features[arity] = feature_map(spec, k, atoms)
    return features[arity]


def _stage_values(spec: FeatureSpec, stages, atoms: PopulationState, features=None):
    """Evaluate each stage's clamped potential at initial data; (M, n).

    Row k equals ``stage_potential_eval(spec, k, stages[k], atoms)``.
    ``features`` ({arity: matrix} of these same data) lets a caller keep
    the two feature matrices across calls.
    """
    features = {} if features is None else features
    return np.stack([
        _clamped(_stage_features(spec, k, atoms, features), stage.beta)
        for k, stage in enumerate(stages)
    ])


def _horizon_time(model: MeanFieldModel, t) -> float:
    """``t`` checked against the trained horizon and clamped into [0, T]."""
    if not -1e-12 <= t <= model.T + 1e-12:
        raise ValueError(f"time {t} outside the trained horizon [0, {model.T}]")
    return min(max(float(t), 0.0), model.T)


def _potential_integral(dt: float, t: float, stage_vals, gamma) -> np.ndarray:
    """The weighted sum of stage values (M, n) at time t; shape (n,)."""
    return np.sum(stage_vals * _stage_weights(dt, len(stage_vals), t, gamma), axis=0)


def _flow(p: ModelParams, dt: float, t: float, stage_vals, atoms: PopulationState):
    """The surrogate flow at time t in [0, M dt] of atoms with stage values
    (M, n); the positions enter only through the stage values."""
    decay = np.exp(-atoms.rates * t)
    chat = _potential_integral(dt, t, stage_vals, atoms.rates)
    return (
        p.s_m * (atoms.sizes / p.s_m) ** decay
        * (atoms.caps / p.s_m) ** (1.0 - decay - chat)
    )


def flow_eval_many(model: MeanFieldModel, t: float, atoms: PopulationState) -> np.ndarray:
    """The surrogate flow of many atoms sharing one evaluation time.

    Grows each atom's initial size, with its position, cap and rate, to time t.
    ``ValueError`` names an atom outside the model's domain.
    """
    _raise_first_offender("atom", _domain_checks(
        model.params, initial_size=atoms.sizes, asymptotic_size=atoms.caps
    ))
    t = _horizon_time(model, t)
    stage_vals = _stage_values(model.spec, model.stages, atoms)
    return _flow(model.params, model.spec.dt, t, stage_vals, atoms)


@lru_cache(maxsize=None)
def _openblas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS that NumPy
    bundles, looked up once in the library NumPy's LAPACK calls run in;
    None where they are absent (another BLAS, or another NumPy build)."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# The thread count is one setting of the whole process, so bodies of
# _one_blas_thread running at once in several Python threads share it.
_blas_lock = threading.Lock()
_blas_users = {"count": 0, "threads_before": 0}


@contextmanager
def _one_blas_thread():
    """Run the body with the bundled OpenBLAS on one thread.

    The stage fits (1000 x 56 ``lstsq``) run about twice as fast on one
    thread as on two, and give the same bits.  The first of concurrent
    bodies sets the count; the last to leave, also by an exception,
    restores the count the first found.  Without the OpenBLAS symbols it
    does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_users["count"] == 0:
            _blas_users["threads_before"] = get()
            set_(1)
        _blas_users["count"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users["count"] -= 1
            if _blas_users["count"] == 0:
                set_(_blas_users["threads_before"])


def _child_seed(seed: int, tag: int, k: int) -> int:
    """64-bit sub-seed for one draw set (cloud / train / test, stage k)."""
    words = np.random.SeedSequence(seed, spawn_key=(tag, k)).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


@dataclass
class TrainConfig:
    """The training settings: stage length ``dt``, horizon ``T`` (``n_stages``
    whole stages, derived, not a field), cloud size ``N``, probes per set and
    stage ``K``, and the degrees ``d3`` (stage 0) and ``d5`` (later stages)."""

    dt: float
    T: float
    N: int
    K: int
    d3: int
    d5: int

    def __post_init__(self):
        dt, T = self.dt, self.T
        _require_positive(dt=dt, T=T)
        ratio = T / dt
        if not ratio < _MAX_STAGES + 0.5:  # also false for inf and NaN
            raise ValueError(
                f"T / dt = {ratio!r} stages; at most {_MAX_STAGES} are allowed"
            )
        self.n_stages = round(ratio)
        if self.n_stages < 1 or abs(self.n_stages * dt - T) > 1e-9 * max(1.0, T):
            raise ValueError("the horizon T must be an integral number of stages")
        if self.d3 < 0 or self.d5 < 0:
            raise ValueError("degrees must be nonnegative")
        if self.N < 1 or self.K < 1:
            raise ValueError("sample sizes must be at least 1")


def train(mu0_cfg: Mu0Config, cfg: TrainConfig, seed: int) -> MeanFieldModel:
    """Fit the stagewise potential surrogate by forward recursion.

    One cloud of ``cfg.N`` plants supplies the Monte-Carlo integrals; each
    stage k draws fresh training and testing probes (``cfg.K`` each),
    advances every involved size to t_k = k dt with the flow already built
    from stages 0..k-1, fits the stage, and moves on.  Stage 0 regresses on
    (s, x) only (degree ``cfg.d3``); later stages on (s, x, S, gamma)
    (degree ``cfg.d5``).  Cloud, training, and testing draws come from
    disjoint sub-streams of ``seed``, so the entire procedure is
    reproducible.  The model's parameters are ``mu0_cfg.params``.  The
    stages run with the bundled OpenBLAS on one thread (``_one_blas_thread``),
    and the caller's thread count is restored on return.
    """
    p, dt = mu0_cfg.params, cfg.dt

    def draw(tag, k, n):
        """The n plants of draw set ``tag`` at stage k."""
        return samples_to_state(
            sample_mu0(mu0_cfg.with_seed(_child_seed(seed, tag, k)), n)
        )

    cloud = draw(_SET_CLOUD, 0, cfg.N)
    spread = float(np.std(cloud.positions))
    if spread == 0.0:
        # Degenerate position cloud: fall back to the spatial decay scale.
        spread = p.sigma_x
    spec = FeatureSpec(
        center=cloud.positions.mean(axis=0), length=spread, dt=dt,
        d3=cfg.d3, d5=cfg.d5, params=p,
    )

    stages: list = []
    cloud_features: dict = {}  # {arity: the cloud's features}, kept for every stage

    def advanced(t, atoms, features):
        """The sizes of ``atoms`` at t under the flow of the stages fitted so far."""
        if not stages:
            return atoms.sizes
        return _flow(p, dt, t, _stage_values(spec, stages, atoms, features), atoms)

    with _one_blas_thread():
        for k in range(cfg.n_stages):
            t_k = k * dt
            sizes_cloud = advanced(t_k, cloud, cloud_features)

            sets = []
            for tag in (_SET_TRAIN, _SET_TEST):
                probes = draw(tag, k, cfg.K)
                features: dict = {}
                sizes = advanced(t_k, probes, features)
                targets = mc_potential(
                    p, sizes, probes.positions, sizes_cloud, cloud.positions
                )
                sets.append((_stage_features(spec, k, probes, features), targets))

            try:
                stages.append(fit_stage(*sets))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"stage {k}: {exc}") from exc

    return MeanFieldModel(
        stages=stages,
        spec=spec,
        T=float(cfg.T),
        mu0_cfg=mu0_cfg,
        n_cloud=cfg.N,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Serialization: versioned JSON, canonical layout, bit-exact round trips.
# Each record is written as its dataclass fields by name, with two
# exceptions: the shared ModelParams appear once, as "params", and the
# initial law sits under "mu0".


def _fields_dict(obj, skip=("params",)) -> dict:
    """The fields of a dataclass by name; nested ones as dicts, arrays as lists."""
    out = {}
    for f in fields(obj):
        if f.name in skip:
            continue
        v = getattr(obj, f.name)
        if is_dataclass(v):
            v = _fields_dict(v)
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        out[f.name] = v
    return out


def _from_fields(cls, d: dict, **given):
    """``cls`` built from exactly its field names in ``d``, apart from ``given``.

    A missing key raises ``KeyError``; keys that are not fields are ignored.
    """
    read = {f.name: d[f.name] for f in fields(cls) if f.name not in given}
    return cls(**given, **read)


def model_to_dict(model: MeanFieldModel, config_sha256: str = "") -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config_sha256": config_sha256,
        **_fields_dict(model, skip=("mu0_cfg", "stages")),
        "params": _fields_dict(model.params),
        "mu0": _fields_dict(model.mu0_cfg),
        "stages": [_fields_dict(st) for st in model.stages],
    }


def model_from_dict(d: dict) -> MeanFieldModel:
    if not isinstance(d, dict) or d.get("format") != MODEL_FORMAT:
        raise ValueError("not a recognized model document")
    if d.get("version") != MODEL_VERSION:
        raise ValueError(
            f"unsupported model version {d.get('version')!r}; retrain with train-meanfield"
        )
    params = _from_fields(ModelParams, d["params"])
    mu0 = d["mu0"]
    mu0_cfg = _from_fields(
        Mu0Config, mu0, params=params,
        S_surface=_from_fields(SurfaceParams, mu0["S_surface"]),
        gamma_surface=_from_fields(SurfaceParams, mu0["gamma_surface"]),
    )
    spec = _from_fields(FeatureSpec, d["spec"], params=params)
    stages = [_from_fields(PotentialStage, sd) for sd in d["stages"]]
    return _from_fields(MeanFieldModel, d, mu0_cfg=mu0_cfg, spec=spec, stages=stages)


def save_model(model: MeanFieldModel, path, config_sha256: str = "") -> None:
    """Write the model as canonical JSON (floats in round-trip form)."""
    write_json(path, model_to_dict(model, config_sha256))


def load_model_dict(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_model(path) -> MeanFieldModel:
    return model_from_dict(load_model_dict(path))


def export_r2_csv(model: MeanFieldModel, path, comments=()) -> None:
    """One row per stage start time: t, r2_train, r2_test."""
    rows = [
        (float(k * model.spec.dt), st.r2_train, st.r2_test)
        for k, st in enumerate(model.stages)
    ]
    header = ["t", "r2_train", "r2_test"]
    write_csv(path, header, map(format_row, rows), comments=comments)
