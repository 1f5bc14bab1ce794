"""Car-following acceleration kernels.

Three calibrated model families:

* ``idm`` -- the Intelligent Driver Model: acceleration from the speed
  ratio to the desired speed and the ratio of desired to actual gap.
* ``blend`` -- IDM blended with the constant-acceleration heuristic (CAH)
  through a tanh coolness blend; the CAH bound keeps decelerations
  realistic when the gap is far below the desired gap.
* ``linear_acc`` -- a linear gap-and-speed-error cruise controller.

Kernels are stateless and return raw (unclamped) accelerations in ft/s^2;
clamping is the simulator's job. The module holds the public API (the
parameter sets, the single-state kernels, gene bounds and parameter
files) and the raw ``*_raw`` kernels behind it. Those take scalars only
and are the reference the simulator's two engines are tested against:
both write the kernels' arithmetic inline, the same IEEE operations in
the same order, the scalar loop on Python floats and the block stepper
on numpy arrays.

A parameter set has one layout, its class's fields, from parameter file
to the simulator's parameter table: the genes first, in GENE_BOUNDS
order, then any field that is no gene (linear_acc's d0). A blend holds
the IDM fields flat, beside c. The classes are keyword-only, so a
reordered field cannot swap positional arguments.

The raw kernels call no builtin: ``max(0.0, q)`` is written
``q if q > 0.0 else 0.0`` and ``min(a_l, a)`` is written
``a if a < a_l else a_l``, as in the inlined loop. The conditional
expressions keep the builtins' results exactly (``max`` keeps its first
argument unless the second is greater, ``min`` unless it is smaller),
NaN and signed zeros included, so every output is the same bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DomainError
from .jsonio import read_json_object, require_keys, require_numbers, write_json

DEFAULT_D0 = 15.0


@dataclass(frozen=True, kw_only=True)
class IdmParams:
    """IDM parameter set (ft/s units).

    a: maximum acceleration (ft/s^2); delta: acceleration exponent;
    v0: desired speed (ft/s); s0: jam (standstill) distance (ft);
    T: desired time gap (s); b: desired deceleration magnitude (ft/s^2).
    """

    a: float
    delta: int
    v0: float
    s0: float
    T: float
    b: float

    def __post_init__(self):
        _check_domain("idm", vars(self))


@dataclass(frozen=True, kw_only=True)
class BlendParams:
    """IDM+CAH blend: the IDM fields, and c, the coolness factor in [0, 1].

    c = 0 reproduces plain IDM; c near 1 trusts the CAH bound under
    small gaps.
    """

    a: float
    delta: int
    v0: float
    s0: float
    T: float
    b: float
    c: float

    def __post_init__(self):
        _check_domain("blend", vars(self))


@dataclass(frozen=True, kw_only=True)
class AccParams:
    """Linear cruise-control gains: a = k1 * gap_error + k2 * (v_l - v).

    t_des (s) is the desired time gap, k1 (1/s^2) weighs the gap error,
    k2 (1/s) the speed difference, d0 (ft) the vehicle-length offset
    inside the gap error.
    """

    t_des: float
    k1: float
    k2: float
    d0: float = DEFAULT_D0

    def __post_init__(self):
        _check_domain("linear_acc", vars(self))


ModelParams = IdmParams | BlendParams | AccParams


def _positive(values: dict, names: tuple[str, ...]):
    return np.logical_and.reduce([values[name] > 0 for name in names])


# The domain of each model kind: its checks in order, each a predicate on
# the kind's flat field values and the message of a parameter set that
# fails it. A predicate takes numbers or the columns of a parameter table
# alike, and holds for no NaN.
_IDM_DOMAIN = [
    (lambda p: _positive(p, ("a", "v0", "s0", "T", "b")),
     "IDM parameters a, v0, s0, T, b must be positive"),
    (lambda p: np.isfinite(p["delta"]) & (p["delta"] >= 1) & (np.rint(p["delta"]) == p["delta"]),
     "delta must be an integer >= 1, got {delta}"),
]
_DOMAIN = {
    "idm": _IDM_DOMAIN,
    "blend": _IDM_DOMAIN + [
        (lambda p: (0.0 <= p["c"]) & (p["c"] <= 1.0),
         "coolness factor must be in [0, 1], got {c}"),
    ],
    "linear_acc": [
        (lambda p: _positive(p, ("k1", "k2", "t_des")), "k1, k2, t_des must be positive"),
        (lambda p: p["d0"] >= 0, "d0 must be nonnegative, got {d0}"),
    ],
}


def _check_domain(kind: str, values: dict) -> None:
    """Raise DomainError with the message of the first check one parameter set fails."""
    for holds, message in _DOMAIN[kind]:
        if not holds(values):
            raise DomainError(message.format(**values))


@dataclass(frozen=True)
class CfState:
    """Instantaneous car-following state.

    s: spacing (ft); v: follower speed; v_l: leader speed (ft/s);
    a_l: leader acceleration (ft/s^2); x_l/x_f: absolute positions (ft),
    required by position-based controllers.
    """

    s: float
    v: float
    v_l: float
    a_l: float = 0.0
    x_l: float | None = None
    x_f: float | None = None

    def __post_init__(self):
        if self.s <= 0:
            raise DomainError(f"spacing must be positive, got {self.s}")
        if self.v < 0 or self.v_l < 0:
            raise DomainError("speeds must be nonnegative")
        if self.x_l is not None and self.x_f is not None:
            if abs((self.x_l - self.x_f) - self.s) > 1e-9:
                raise DomainError("positions inconsistent with spacing")


# ---------------------------------------------------------------------------
# raw scalar kernels (the reference for the simulator's step loop)

def idm_accel_raw(a, delta, v0, s0, T, two_sqrt_ab, s, v, dv):
    q = v * T + v * dv / two_sqrt_ab
    s_star = s0 + (q if q > 0.0 else 0.0)
    ratio = s_star / s
    return a * (1.0 - (v / v0) ** delta - ratio * ratio)


def cah_accel_raw(a, s, v, v_l, a_l):
    a_tilde = a if a < a_l else a_l
    denom = v_l * v_l - 2.0 * s * a_tilde
    if v_l * (v - v_l) <= -2.0 * s * a_tilde and denom > 0.0:
        return v * v * a_tilde / denom
    dv = v - v_l
    if dv >= 0.0:
        return a_tilde - dv * dv / (2.0 * s)
    return a_tilde


def blend_accel_raw(a, delta, v0, s0, T, b, two_sqrt_ab, c, s, v, v_l, a_l):
    a_i = idm_accel_raw(a, delta, v0, s0, T, two_sqrt_ab, s, v, v - v_l)
    a_c = cah_accel_raw(a, s, v, v_l, a_l)
    if a_i >= a_c:
        return a_i
    return (1.0 - c) * a_i + c * (a_c + b * math.tanh((a_i - a_c) / b))


def linear_acc_accel_raw(k1, k2, t_des, d0, x_l, x_f, v, v_l):
    gap_error = x_l - x_f - d0 - t_des * v
    return k1 * gap_error + k2 * (v_l - v)


# ---------------------------------------------------------------------------
# public kernels

def _check_spacing(s: float) -> None:
    if s <= 0:
        raise DomainError(f"spacing must be positive, got {s}")


def idm_accel(p: IdmParams | BlendParams, s: float, v: float, dv: float) -> float:
    """IDM acceleration for spacing s, speed v, and closing speed dv = v - v_l."""
    _check_spacing(s)
    return idm_accel_raw(p.a, p.delta, p.v0, p.s0, p.T, 2.0 * math.sqrt(p.a * p.b), s, v, dv)


def cah_accel(p: IdmParams | BlendParams, s: float, v: float, v_l: float, a_l: float) -> float:
    """Largest crash-avoiding acceleration if the leader holds its acceleration.

    The leader's assumed acceleration is capped at the follower's own
    maximum; negative approach rates are dropped by the Heaviside factor.
    """
    _check_spacing(s)
    return cah_accel_raw(p.a, s, v, v_l, a_l)


def blend_accel(p: BlendParams, state: CfState) -> float:
    """IDM response, softened toward the CAH bound when IDM over-brakes."""
    _check_spacing(state.s)
    return blend_accel_raw(
        p.a, p.delta, p.v0, p.s0, p.T, p.b, 2.0 * math.sqrt(p.a * p.b),
        p.c, state.s, state.v, state.v_l, state.a_l,
    )


def linear_acc_accel(p: AccParams, state: CfState) -> float:
    """Linear controller on gap error and speed difference; needs positions."""
    if state.x_l is None or state.x_f is None:
        raise DomainError("linear ACC controller requires absolute positions")
    return linear_acc_accel_raw(p.k1, p.k2, p.t_des, p.d0,
                                state.x_l, state.x_f, state.v, state.v_l)


def equilibrium_spacing(p: IdmParams | BlendParams, v: float) -> float:
    """Spacing at which IDM acceleration vanishes for matched speeds."""
    if v < 0:
        raise DomainError(f"speed must be nonnegative, got {v}")
    if v >= p.v0:
        raise DomainError(f"no finite equilibrium at or above desired speed ({v} >= {p.v0})")
    return (p.s0 + v * p.T) / math.sqrt(1.0 - (v / p.v0) ** p.delta)


# ---------------------------------------------------------------------------
# parameter files and gene bounds

# Gene order per model kind: (name, low, high, integer-valued). Ranges
# cover the spread of published calibrations for low-speed operation.
# Its keys are the model kinds, and a kind's gene names are the keys its
# parameter files must hold.
GENE_BOUNDS: dict[str, list[tuple[str, float, float, bool]]] = {
    "idm": [
        ("a", 0.33, 17.4, False),
        ("delta", 1.0, 10.0, True),
        ("v0", 1.0, 137.0, False),
        ("s0", 0.5, 33.0, False),
        ("T", 0.1, 5.0, False),
        ("b", 0.33, 26.0, False),
    ],
    "blend": [
        ("a", 0.33, 17.4, False),
        ("delta", 1.0, 10.0, True),
        ("v0", 1.0, 137.0, False),
        ("s0", 0.5, 33.0, False),
        ("T", 0.1, 5.0, False),
        ("b", 0.33, 26.0, False),
        ("c", 0.0, 1.0, False),
    ],
    "linear_acc": [
        ("t_des", 0.1, 9.0, False),
        ("k1", 0.001, 1.0, False),
        ("k2", 0.001, 1.0, False),
    ],
}

MODEL_KINDS = tuple(GENE_BOUNDS)

# The parameter class of each model kind. Its fields are the keys of the
# kind's parameter files, its genes are the leading fields, and a
# simulator row holds all of them.
_KIND_CLASS = {"idm": IdmParams, "blend": BlendParams, "linear_acc": AccParams}

# The simulator's parameter table: per model kind, the fields of one row,
# in the order its kernels unpack them.
TABLE_FIELDS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in _KIND_CLASS.items()}


def model_kind(params: ModelParams) -> str:
    for kind, cls in _KIND_CLASS.items():
        if isinstance(params, cls):
            return kind
    raise DomainError(f"unknown model parameter type {type(params).__name__}")


def genes_to_params(kind: str, genes) -> ModelParams:
    """Build a parameter set from a flat gene vector (GENE_BOUNDS order).

    Integer-valued genes (the IDM exponent) are rounded at evaluation.
    """
    if kind not in GENE_BOUNDS:
        raise DomainError(f"unknown model kind {kind!r}")
    layout = GENE_BOUNDS[kind]
    if len(genes) != len(layout):
        raise DomainError(f"{kind} expects {len(layout)} genes, got {len(genes)}")
    values = {name: int(round(float(g))) if integer else float(g)
              for (name, _, _, integer), g in zip(layout, genes)}
    return _KIND_CLASS[kind](**values)


def params_row(params: ModelParams) -> tuple[str, list[float]]:
    """The kind of a parameter set and its values in TABLE_FIELDS order, as floats."""
    return model_kind(params), [float(value) for value in vars(params).values()]


def genes_table(kind: str, genes) -> tuple[np.ndarray, np.ndarray]:
    """The parameter table of a (rows, genes) matrix, and which rows lie in the domain.

    A row of the (rows, fields) table holds what params_row gives the
    parameter set genes_to_params builds from the same genes. The mask is
    False exactly where genes_to_params raises, and the values of such a
    row mean nothing. Raises DomainError for an unknown kind or the wrong
    number of genes.
    """
    if kind not in GENE_BOUNDS:
        raise DomainError(f"unknown model kind {kind!r}")
    layout = GENE_BOUNDS[kind]
    table = np.array(genes, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(layout):
        raise DomainError(f"{kind} expects rows of {len(layout)} genes, got shape {table.shape}")
    # int(round(float(g))) rounds half to even, as rint does, and raises
    # where rint gives NaN or an infinity, which the domain rejects
    for j, (_, _, _, integer) in enumerate(layout):
        if integer:
            table[:, j] = np.rint(table[:, j])
    if kind == "linear_acc":
        table = np.column_stack([table, np.full(len(table), DEFAULT_D0)])
    column = dict(zip(TABLE_FIELDS[kind], table.T))
    ok = np.ones(len(table), dtype=bool)
    for holds, _ in _DOMAIN[kind]:
        ok &= holds(column)
    return table, ok


def params_to_genes(params: ModelParams) -> list[float]:
    kind, row = params_row(params)
    return row[:len(GENE_BOUNDS[kind])]


def params_to_dict(params: ModelParams) -> dict:
    return {"model": model_kind(params), **vars(params)}


def params_from_dict(data: dict) -> ModelParams:
    require_keys(data, ("model",), "model parameters")
    kind = data["model"]
    if kind not in MODEL_KINDS:  # a tuple: an unhashable kind compares unequal
        raise DomainError(f"unknown model kind {kind!r}")
    allowed = {"model", *TABLE_FIELDS[kind]} | ({"improved_idm"} if kind == "blend" else set())
    stray = [key for key in data if key not in allowed]
    if stray:
        raise DomainError(f"{kind} parameters: unknown keys {', '.join(stray)}")
    optional = ("d0",) if "d0" in data else ()
    required = tuple(name for name, _, _, _ in GENE_BOUNDS[kind])
    require_numbers(data, required + optional, f"{kind} parameters")
    # files written before the improved-IDM variant was removed carry
    # "improved_idm": false; any other value asked for that variant
    if kind == "blend" and data.get("improved_idm", False) is not False:
        raise DomainError("blend parameters: improved_idm is no longer supported; "
                          "only false is accepted")
    return _KIND_CLASS[kind](**{name: data[name] for name in TABLE_FIELDS[kind] if name in data})


def load_params(path: str | Path) -> ModelParams:
    return params_from_dict(read_json_object(path, "model parameters"))


def write_params(params: ModelParams, path: str | Path) -> None:
    write_json(path, params_to_dict(params))


def default_params(kind: str) -> ModelParams:
    """Bundled parameter sets calibrated for a low-speed autonomous shuttle."""
    if kind not in MODEL_KINDS:
        raise DomainError(f"unknown model kind {kind!r}")
    text = resources.files("cfcalib.data").joinpath(f"default_{kind}.json").read_text()
    return params_from_dict(json.loads(text))
