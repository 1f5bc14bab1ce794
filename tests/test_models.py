import ast
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cfcalib import (
    AccParams,
    BlendParams,
    CfState,
    DomainError,
    IdmParams,
    blend_accel,
    cah_accel,
    default_params,
    equilibrium_spacing,
    idm_accel,
    linear_acc_accel,
)
from cfcalib import models, sim
from cfcalib.models import (
    DEFAULT_D0,
    GENE_BOUNDS,
    TABLE_FIELDS,
    blend_accel_raw,
    cah_accel_raw,
    genes_table,
    genes_to_params,
    idm_accel_raw,
    load_params,
    params_from_dict,
    params_row,
    params_to_dict,
    params_to_genes,
    write_params,
)

SHUTTLE_IDM = IdmParams(a=2.76, delta=1, v0=20.0, s0=9.89, T=2.79, b=24.58)
SHUTTLE_BLEND = BlendParams(a=1.214, delta=3, v0=18.742, s0=9.892, T=2.98, b=24.846, c=0.959)
SHUTTLE_ACC = AccParams(t_des=4.96, k1=0.01, k2=0.43, d0=15.0)

# plausible single-vehicle parameter draws, spanning published calibrations
idm_params_st = st.builds(
    IdmParams,
    a=st.floats(0.5, 10.0),
    delta=st.integers(1, 6),
    v0=st.floats(10.0, 120.0),
    s0=st.floats(1.0, 30.0),
    T=st.floats(0.3, 5.0),
    b=st.floats(0.5, 25.0),
)


class TestIdmAccel:
    def test_free_flow_at_desired_speed(self):
        assert idm_accel(SHUTTLE_IDM, 1e9, SHUTTLE_IDM.v0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_standstill_equilibrium(self):
        assert idm_accel(SHUTTLE_IDM, SHUTTLE_IDM.s0, 0.0, 0.0) == 0.0

    def test_shuttle_worked_value(self):
        # independent evaluation: s* = 9.89 + 14*2.79, a*(1 - 0.7 - (s*/60)^2)
        assert idm_accel(SHUTTLE_IDM, 60.0, 14.0, 0.0) == pytest.approx(
            -1.009011916666667, abs=1e-9)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(DomainError):
            idm_accel(SHUTTLE_IDM, 0.0, 5.0, 0.0)
        with pytest.raises(DomainError):
            idm_accel(SHUTTLE_IDM, -3.0, 5.0, 0.0)

    @given(params=idm_params_st, v=st.floats(0.1, 20.0), dv=st.floats(-5.0, 5.0),
           s1=st.floats(1.0, 500.0), s2=st.floats(1.0, 500.0))
    @settings(max_examples=100)
    # one ULP apart: both spacings round to the same acceleration
    @example(params=IdmParams(a=1.0, delta=1, v0=10.0, s0=1.0, T=1.0, b=1.0),
             v=1.0, dv=0.0, s1=500.0, s2=499.99999999999994)
    def test_strictly_increasing_in_spacing(self, params, v, dv, s1, s2):
        if s1 == s2:
            return
        lo, hi = sorted((s1, s2))
        a_lo, a_hi = idm_accel(params, lo, v, dv), idm_accel(params, hi, v, dv)
        # monotone for every pair; strictly so once the spacings differ by
        # more than rounding can hide
        assert a_lo <= a_hi
        if hi >= lo * (1.0 + 1e-9):
            assert a_lo < a_hi

    @given(params=idm_params_st, v=st.floats(0.0, 30.0), dv=st.floats(-10.0, 10.0),
           s=st.floats(0.5, 1000.0))
    @settings(max_examples=100)
    def test_never_exceeds_max_acceleration(self, params, v, dv, s):
        assert idm_accel(params, s, v, dv) <= params.a


class TestCahAccel:
    def test_steady_following_is_zero(self):
        assert cah_accel(SHUTTLE_IDM, 40.0, 12.0, 12.0, 0.0) == 0.0

    def test_stopped_decelerating_leader(self):
        # first branch with a_l < 0 and v_l = 0 reduces to -v^2 / (2s)
        assert cah_accel(SHUTTLE_IDM, 50.0, 10.0, 0.0, -5.0) == pytest.approx(-1.0, abs=1e-12)

    def test_parked_leader_continuity(self):
        # second branch at exactly zero leader accel agrees with the
        # first-branch limit from below
        assert cah_accel(SHUTTLE_IDM, 50.0, 10.0, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_upper_bounded_by_capped_leader_accel(self):
        for dv in (-3.0, 0.0, 3.0):
            value = cah_accel(SHUTTLE_IDM, 30.0, 10.0 + dv, 10.0, 1.5)
            assert value <= min(1.5, SHUTTLE_IDM.a) + 1e-12

    def test_branch_agreement_on_boundary(self):
        # on v_l*(v-v_l) = -2*s*a_tilde with a braking leader, both branch
        # formulas coincide
        rng = np.random.default_rng(3)
        for _ in range(100):
            v_l = rng.uniform(1.0, 15.0)
            dv = rng.uniform(0.1, 8.0)
            s = rng.uniform(5.0, 200.0)
            a_tilde = -v_l * dv / (2.0 * s)
            v = v_l + dv
            first = v * v * a_tilde / (v_l * v_l - 2.0 * s * a_tilde)
            second = a_tilde - dv * dv / (2.0 * s)
            assert first == pytest.approx(second, abs=1e-9)
            value = cah_accel(SHUTTLE_IDM, s, v, v_l, a_tilde)
            assert value == pytest.approx(first, abs=1e-9)


class TestBlendAccel:
    @given(s=st.floats(1.0, 300.0), v=st.floats(0.0, 19.0), v_l=st.floats(0.0, 19.0),
           a_l=st.floats(-10.0, 3.0))
    @settings(max_examples=100)
    def test_zero_coolness_reduces_to_idm(self, s, v, v_l, a_l):
        blend = BlendParams(**vars(SHUTTLE_IDM), c=0.0)
        state = CfState(s=s, v=v, v_l=v_l, a_l=a_l)
        assert blend_accel(blend, state) == idm_accel(SHUTTLE_IDM, s, v, v - v_l)

    def test_idm_branch_taken_when_idm_milder(self):
        # large gap, hard-braking leader: CAH is far below IDM
        state = CfState(s=300.0, v=10.0, v_l=10.0, a_l=-8.0)
        blend = blend_accel(SHUTTLE_BLEND, state)
        a_i = idm_accel(SHUTTLE_BLEND, state.s, state.v, 0.0)
        assert blend == a_i

    def test_shuttle_worked_value(self):
        # chained hand evaluation of the IDM, CAH, and tanh blend
        state = CfState(s=30.0, v=15.0, v_l=5.0, a_l=-3.0)
        assert blend_accel(SHUTTLE_BLEND, state) == pytest.approx(
            -5.684087096563437, abs=1e-9)

    def test_continuous_at_branch_boundary(self):
        # sweep states pushing a_I through a_C; the output must not jump
        blend = SHUTTLE_BLEND
        prev = None
        for s in np.linspace(55.0, 75.0, 4001):
            state = CfState(s=float(s), v=12.0, v_l=8.0, a_l=-2.0)
            value = blend_accel(blend, state)
            if prev is not None:
                assert abs(value - prev) < 5e-3
            prev = value

    def test_branch_switch_is_exact_at_equality(self):
        # if a_I == a_C the blended form collapses to a_I: (1-c)a + c(a + b*tanh 0)
        p = SHUTTLE_BLEND
        for a_val in (-2.0, 0.0, 1.0):
            mixed = (1 - p.c) * a_val + p.c * (a_val + p.b * math.tanh((a_val - a_val) / p.b))
            assert mixed == a_val


# The raw kernels as written with the max and min builtins. models.py
# spells those calls as conditional expressions; these keep the builtins.

def idm_oracle(a, delta, v0, s0, T, two_sqrt_ab, s, v, dv):
    s_star = s0 + max(0.0, v * T + v * dv / two_sqrt_ab)
    ratio = s_star / s
    return a * (1.0 - (v / v0) ** delta - ratio * ratio)


def cah_oracle(a, s, v, v_l, a_l):
    a_tilde = min(a_l, a)
    denom = v_l * v_l - 2.0 * s * a_tilde
    if v_l * (v - v_l) <= -2.0 * s * a_tilde and denom > 0.0:
        return v * v * a_tilde / denom
    dv = v - v_l
    if dv >= 0.0:
        return a_tilde - dv * dv / (2.0 * s)
    return a_tilde


def blend_oracle(a, delta, v0, s0, T, b, two_sqrt_ab, c, s, v, v_l, a_l):
    a_i = idm_oracle(a, delta, v0, s0, T, two_sqrt_ab, s, v, v - v_l)
    a_c = cah_oracle(a, s, v, v_l, a_l)
    if a_i >= a_c:
        return a_i
    return (1.0 - c) * a_i + c * (a_c + b * math.tanh((a_i - a_c) / b))


def _outcome(kernel, *args):
    """A kernel's result as comparable bits: "nan", float.hex, or the exception type."""
    try:
        value = kernel(*args)
    except (ArithmeticError, TypeError) as exc:
        return type(exc)
    if isinstance(value, complex):  # a negative base to a fractional power
        return repr(value)
    return "nan" if math.isnan(value) else value.hex()


def assert_kernels_match_oracles(a, delta, v0, s0, T, b, two_sqrt_ab, c, s, v, v_l, a_l):
    cases = [
        (idm_accel_raw, idm_oracle, (a, delta, v0, s0, T, two_sqrt_ab, s, v, v - v_l)),
        (cah_accel_raw, cah_oracle, (a, s, v, v_l, a_l)),
        (blend_accel_raw, blend_oracle, (a, delta, v0, s0, T, b, two_sqrt_ab, c, s, v, v_l, a_l)),
    ]
    for kernel, oracle, args in cases:
        assert _outcome(kernel, *args) == _outcome(oracle, *args), (kernel.__name__, args)


# NaN, signed zeros, infinities, the smallest subnormals and two ordinary values
EDGE_FLOATS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.5, -2.5]
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


class TestRawKernelsMatchBuiltinForms:
    @given(a=any_float, delta=st.integers(1, 10), v0=any_float, s0=any_float, T=any_float,
           b=any_float, two_sqrt_ab=any_float, c=any_float, s=any_float, v=any_float,
           v_l=any_float, a_l=any_float)
    @settings(max_examples=400)
    def test_any_floats(self, **args):
        assert_kernels_match_oracles(**args)

    def test_edge_values(self):
        # x and y meet in min(a_l, a), and in max(0.0, v*T + v*dv/two_sqrt_ab)
        # through v and T; s0 carries x into the sign of s*
        for x, y in itertools.product(EDGE_FLOATS, EDGE_FLOATS):
            assert_kernels_match_oracles(a=x, delta=2, v0=20.0, s0=x, T=y, b=3.0,
                                         two_sqrt_ab=4.0, c=0.5, s=30.0, v=x, v_l=y, a_l=y)

    def test_per_step_kernels_call_no_builtin(self):
        def builtin_calls(node):
            return sorted(call.func.id for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id in {"max", "min", "abs"})

        kernels = {"idm_accel_raw", "cah_accel_raw", "blend_accel_raw", "linear_acc_accel_raw"}
        tree = ast.parse(Path(models.__file__).read_text())
        calls = {node.name: builtin_calls(node) for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in kernels}
        assert calls == {name: [] for name in kernels}
        # the scalar step loops write these kernels inline, and no sub-step
        # body calls the builtins either, or any function but the list
        # appends and the blend's tanh, or reads the model kind
        tree = ast.parse(Path(sim.__file__).read_text())
        loops = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.endswith("_step_loop")}
        assert sorted(loops) == ["_acc_step_loop", "_idm_step_loop"]
        for loop in loops.values():
            (body,) = [node for node in loop.body if isinstance(node, ast.For)]
            assert builtin_calls(body) == []
            sub_step = [node for statement in body.body for node in ast.walk(statement)]
            called = {call.func.id if isinstance(call.func, ast.Name) else None
                      for call in sub_step if isinstance(call, ast.Call)}
            assert called <= {"keep_x", "keep_v", "tanh"}
            assert "kind" not in {node.id for node in sub_step if isinstance(node, ast.Name)}


class TestLinearAcc:
    def test_equilibrium_zero(self):
        # gap error zero and matched speeds
        x_f = 0.0
        v = 10.0
        x_l = SHUTTLE_ACC.d0 + SHUTTLE_ACC.t_des * v
        state = CfState(s=x_l - x_f, v=v, v_l=v, x_l=x_l, x_f=x_f)
        assert linear_acc_accel(SHUTTLE_ACC, state) == pytest.approx(0.0, abs=1e-12)

    def test_shuttle_worked_value(self):
        # e = 300 - 200 - 15 - 4.96*10 = 35.4; 0.01*35.4 + 0.43*2 = 1.214
        state = CfState(s=100.0, v=10.0, v_l=12.0, x_l=300.0, x_f=200.0)
        assert linear_acc_accel(SHUTTLE_ACC, state) == pytest.approx(1.214, abs=1e-12)

    def test_linearity_in_gap_gain(self):
        state = CfState(s=100.0, v=10.0, v_l=12.0, x_l=300.0, x_f=200.0)
        doubled = AccParams(t_des=4.96, k1=0.02, k2=0.43, d0=15.0)
        gap_error = 300.0 - 200.0 - 15.0 - 4.96 * 10.0
        assert (linear_acc_accel(doubled, state)
                - linear_acc_accel(SHUTTLE_ACC, state)) == pytest.approx(
                    0.01 * gap_error, rel=1e-12)

    def test_requires_positions(self):
        with pytest.raises(DomainError):
            linear_acc_accel(SHUTTLE_ACC, CfState(s=50.0, v=10.0, v_l=10.0))


class TestEquilibriumSpacing:
    def test_standstill_is_jam_distance(self):
        assert equilibrium_spacing(SHUTTLE_IDM, 0.0) == SHUTTLE_IDM.s0

    def test_shuttle_worked_value(self):
        # root of idm_accel(s; v=14, dv=0) = 0, found by bisection
        lo, hi = 1.0, 1000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if idm_accel(SHUTTLE_IDM, mid, 14.0, 0.0) < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(89.3700639662596, abs=1e-9)
        assert equilibrium_spacing(SHUTTLE_IDM, 14.0) == pytest.approx(root, abs=1e-9)

    def test_no_equilibrium_at_desired_speed(self):
        with pytest.raises(DomainError):
            equilibrium_spacing(SHUTTLE_IDM, SHUTTLE_IDM.v0)

    @given(params=idm_params_st, frac=st.floats(0.0, 0.95))
    @settings(max_examples=150)
    def test_defining_identity(self, params, frac):
        v = frac * params.v0
        s_e = equilibrium_spacing(params, v)
        assert idm_accel(params, s_e, v, 0.0) == pytest.approx(0.0, abs=1e-9)


class TestParamsPlumbing:
    def test_defaults_match_bundled_calibrations(self):
        assert default_params("idm") == SHUTTLE_IDM
        assert default_params("blend") == SHUTTLE_BLEND
        assert default_params("linear_acc") == SHUTTLE_ACC

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_json_round_trip(self, kind, tmp_path):
        params = default_params(kind)
        path = tmp_path / "params.json"
        write_params(params, path)
        assert load_params(path) == params

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_gene_round_trip(self, kind):
        params = default_params(kind)
        genes = params_to_genes(params)
        assert len(genes) == len(GENE_BOUNDS[kind])
        assert genes_to_params(kind, genes) == params

    def test_delta_gene_rounds_to_integer(self):
        genes = [2.76, 1.4, 20.0, 9.89, 2.79, 24.58]
        assert genes_to_params("idm", genes).delta == 1

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            IdmParams(a=-1.0, delta=1, v0=20.0, s0=9.89, T=2.79, b=24.58)
        with pytest.raises(DomainError):
            IdmParams(a=2.76, delta=0, v0=20.0, s0=9.89, T=2.79, b=24.58)
        with pytest.raises(DomainError):
            BlendParams(**vars(SHUTTLE_IDM), c=1.5)
        with pytest.raises(DomainError):
            AccParams(t_des=0.0, k1=0.1, k2=0.1)
        with pytest.raises(DomainError):
            CfState(s=-1.0, v=0.0, v_l=0.0)

    @pytest.mark.parametrize("values, message", [
        (dict(a=-1.0), "IDM parameters a, v0, s0, T, b must be positive"),
        (dict(a=math.nan), "IDM parameters a, v0, s0, T, b must be positive"),
        (dict(a=-1.0, b=math.nan), "IDM parameters a, v0, s0, T, b must be positive"),
        (dict(delta=1.5), "delta must be an integer >= 1, got 1.5"),
        (dict(delta=math.inf), "delta must be an integer >= 1, got inf"),
        (dict(delta=math.nan), "delta must be an integer >= 1, got nan"),
        (dict(c=1.5), "coolness factor must be in [0, 1], got 1.5"),
        (dict(k1=0.0), "k1, k2, t_des must be positive"),
        (dict(d0=-1.0), "d0 must be nonnegative, got -1.0"),
    ])
    def test_domain_messages(self, values, message):
        """The first check a parameter set fails names it, NaN and infinities included."""
        kind = "blend" if "c" in values else "linear_acc" if {"k1", "d0"} & set(values) else "idm"
        params = default_params(kind)
        with pytest.raises(DomainError) as info:
            type(params)(**{**vars(params), **values})
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_class_fields_are_the_one_layout(self, kind):
        """Genes lead the class's fields, a table row holds them all, and only keywords build one."""
        params = default_params(kind)
        names = tuple(field.name for field in dataclasses.fields(params))
        genes = tuple(name for name, _, _, _ in GENE_BOUNDS[kind])
        assert names[:len(genes)] == genes
        assert TABLE_FIELDS[kind] == names
        with pytest.raises(TypeError):
            type(params)(*params_row(params)[1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            params_from_dict({"model": "wiedemann"})

    def test_improved_idm_key_only_false_is_accepted(self):
        data = params_to_dict(SHUTTLE_BLEND)
        assert "improved_idm" not in data
        assert params_from_dict({**data, "improved_idm": False}) == SHUTTLE_BLEND
        for value in (True, "false", 1, 0, None):
            with pytest.raises(DomainError, match="improved_idm"):
                params_from_dict({**data, "improved_idm": value})

    @pytest.mark.parametrize("kind, extra, named", [
        ("idm", {"c": 0.9}, "c"),  # a blend file with a mistyped "model"
        ("idm", {"d0": 15.0, "improved_idm": False}, "d0, improved_idm"),
        ("blend", {"k1": 0.5}, "k1"),
        ("linear_acc", {"a": 2.0}, "a"),
    ])
    def test_keys_of_another_kind_rejected(self, kind, extra, named):
        data = {**params_to_dict(default_params(kind)), **extra}
        with pytest.raises(DomainError) as exc:
            params_from_dict(data)
        assert str(exc.value) == f"{kind} parameters: unknown keys {named}"

    def test_dict_round_trip(self):
        for kind in ("idm", "blend", "linear_acc"):
            params = default_params(kind)
            assert params_from_dict(params_to_dict(params)) == params

    @pytest.mark.parametrize("data, written", [
        ({"model": "idm", "a": 2, "delta": 4, "v0": 20, "s0": 5.5, "T": 1, "b": 3}, None),
        ({"model": "blend", "a": 1.2, "delta": 3, "v0": 18, "s0": 9.9, "T": 3, "b": 24.8,
          "c": 1}, None),
        ({"model": "linear_acc", "t_des": 5, "k1": 0.01, "k2": 1, "d0": 12}, None),
        ({"model": "linear_acc", "t_des": 5, "k1": 0.01, "k2": 1},
         {"model": "linear_acc", "t_des": 5, "k1": 0.01, "k2": 1, "d0": 15.0}),
        ({"model": "blend", "a": 1.2, "delta": 3, "v0": 18, "s0": 9.9, "T": 3, "b": 24.8,
          "c": 0.5, "improved_idm": False},
         {"model": "blend", "a": 1.2, "delta": 3, "v0": 18, "s0": 9.9, "T": 3, "b": 24.8,
          "c": 0.5}),
    ], ids=["idm", "blend", "linear_acc", "linear_acc-default-d0", "blend-improved-idm-false"])
    def test_dict_layout_and_number_types_kept(self, data, written):
        """A file reads back and writes out with the same keys, values and JSON text."""
        out = params_to_dict(params_from_dict(data))
        expected = data if written is None else written
        assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)


def straddling_gene(lo, hi, integer):
    """A gene value across and beyond its bounds: below 0, on the edges, NaN and infinities.

    Integer genes also take halves, which round to even.
    """
    span = hi - lo
    values = [st.floats(-span, hi + span), st.sampled_from(
        [0.0, -0.0, lo, hi, math.nan, math.inf, -math.inf, -1.0, 1.0])]
    if integer:
        values.append(st.integers(-4, 24).map(lambda k: k / 2))
    return st.one_of(*values)


def gene_matrix(kind):
    row = st.tuples(*[straddling_gene(lo, hi, integer) for _, lo, hi, integer in GENE_BOUNDS[kind]])
    return st.lists(row, min_size=1, max_size=12)


def builds(kind, genes):
    """genes_to_params' parameter set, or None where it raises (for any reason)."""
    try:
        return genes_to_params(kind, genes)
    except Exception:
        return None


class TestGenesTable:
    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mask_is_where_genes_to_params_builds(self, kind, data):
        """The mask holds exactly where genes_to_params does not raise, and each row its values."""
        genes = data.draw(gene_matrix(kind))
        table, ok = genes_table(kind, np.array(genes))
        assert table.shape == (len(genes), len(TABLE_FIELDS[kind]))
        assert table.dtype == np.float64 and table.flags.c_contiguous
        built = [builds(kind, row) for row in genes]
        assert ok.tolist() == [params is not None for params in built]
        for row, params in zip(table, built):
            if params is not None:  # bytes, so that NaN equals NaN
                assert row.tobytes() == np.array(params_row(params)[1]).tobytes()

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_gene_round_trip(self, kind):
        params = default_params(kind)
        table, ok = genes_table(kind, [params_to_genes(params)])
        assert ok.tolist() == [True]
        assert table[0].tolist() == params_row(params)[1]

    def test_linear_acc_rows_are_genes_then_default_d0(self):
        # genes are (t_des, k1, k2); the engine reads (t_des, k1, k2, d0)
        table, ok = genes_table("linear_acc", [[4.96, 0.01, 0.43], [4.96, 0.01, 0.43]])
        assert table.tolist() == [[4.96, 0.01, 0.43, DEFAULT_D0]] * 2
        assert ok.tolist() == [True, True]

    @pytest.mark.parametrize("g, delta", [(0.5, 0.0), (1.5, 2.0), (2.5, 2.0), (3.5, 4.0)])
    def test_integer_genes_round_half_to_even(self, g, delta):
        genes = [2.76, g, 20.0, 9.89, 2.79, 24.58]
        table, ok = genes_table("idm", [genes])
        assert table[0, 1] == delta
        assert ok[0] == (delta >= 1)
        if delta >= 1:
            assert genes_to_params("idm", genes).delta == delta

    @pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
    def test_non_finite_integer_genes_rejected(self, g):
        # int(round(g)) raises OverflowError or ValueError
        genes = [2.76, g, 20.0, 9.89, 2.79, 24.58]
        assert genes_table("idm", [genes])[1].tolist() == [False]
        assert builds("idm", genes) is None

    @pytest.mark.parametrize("kind", ["idm", "blend", "linear_acc"])
    def test_nan_in_any_gene_rejected(self, kind):
        genes = params_to_genes(default_params(kind))
        rows = [genes[:i] + [math.nan] + genes[i + 1:] for i in range(len(genes))]
        assert genes_table(kind, rows)[1].tolist() == [False] * len(genes)
        assert [builds(kind, row) for row in rows] == [None] * len(genes)

    @pytest.mark.parametrize("kind, genes", [("idm", [[1.0] * 5]), ("linear_acc", [[1.0] * 4]),
                                             ("idm", [1.0] * 6), ("idm", 1.0),
                                             ("wiedemann", [[1.0] * 6])])
    def test_wrong_gene_count_or_kind_rejected(self, kind, genes):
        with pytest.raises(DomainError):
            genes_table(kind, genes)
