"""Closed-form law evaluation: expert transform, loss surfaces, counting."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moescale import (
    ArchitectureConvention,
    DenseLawParams,
    ScalingLawParams,
    activated_params,
    effective_experts,
    predict_loss,
    predict_loss_dense,
    suggested_learning_rate,
    total_params,
    training_flops,
)
from moescale.laws import _expanded, _loss

from conftest import DENSE_TRUTH, TRUTH


class TestEffectiveExperts:
    def test_one_expert_is_pinned_exactly(self):
        """E = 1 must hit the low anchor bitwise, not just approximately."""
        for e_start, e_max in [(1.0, 64.0), (1.4, 62.0), (1.5, 64.0), (3.0, 5.0)]:
            assert effective_experts(1.0, e_start, e_max) == e_start

    def test_large_e_saturates_at_e_max(self):
        val = effective_experts(1.0e9, 1.5, 64.0)
        assert abs(val - 64.0) < 1.0e-5 * 64.0

    def test_eight_experts_unit_anchor(self):
        # 1/Ehat = 1/(8 - 1 + 64/63) + 1/64 with e_start = 1, e_max = 64,
        # which reduces to the exact rational 32320/4537.
        val = effective_experts(8.0, 1.0, 64.0)
        np.testing.assert_allclose(val, 32320.0 / 4537.0, rtol=1.0e-12)
        assert val == 7.123649988979502

    def test_strictly_increasing_up_to_a_million(self):
        counts = np.unique(
            np.concatenate(
                [
                    np.arange(1.0, 1002.0),
                    np.round(np.geomspace(1.0e3, 1.0e6, 300)),
                ]
            )
        )
        vals = effective_experts(counts, 1.4, 62.0)
        assert np.all(np.diff(vals) > 0)

    def test_bounded_above_by_e_max(self):
        counts = np.geomspace(1.0, 1.0e12, 200)
        vals = effective_experts(counts, 1.5, 64.0)
        assert np.all(vals < 64.0)

    def test_near_equal_anchors_stay_finite(self):
        """A tiny anchor gap must not blow up through the spread term."""
        vals = effective_experts(
            np.array([1.0, 2.0, 100.0]), 8.0, 8.0 + 1.0e-12
        )
        assert np.all(np.isfinite(vals))
        assert np.all(vals <= 8.0 + 1.0e-12)

    def test_scalar_in_scalar_out(self):
        out = effective_experts(4.0, 1.4, 62.0)
        assert isinstance(out, float)

    def test_rejects_counts_below_one(self):
        with pytest.raises(ValueError):
            effective_experts(0.5, 1.4, 62.0)


class TestPredictLoss:
    def test_hand_computed_bracket(self):
        """1/10 + ~0 + 1/10 + 0 with no interaction is exactly 0.2."""
        params = ScalingLawParams(
            coef_N=1.0,
            coef_E=1.0e-300,
            coef_D=1.0,
            irreducible=0.0,
            alpha=1.0,
            beta=1.0,
            gamma=1.0,
            interaction=0.0,
            e_start=1.0,
            e_max=64.0,
        )
        np.testing.assert_allclose(
            predict_loss(10.0, 10.0, 1.0, params), 0.2, rtol=1.0e-15
        )

    def test_degenerate_coefficients_leave_the_floor(self):
        params = ScalingLawParams(
            coef_N=1.0e-30,
            coef_E=1.0e-30,
            coef_D=1.0e-30,
            irreducible=2.0,
            alpha=0.3,
            beta=0.4,
            gamma=0.3,
            interaction=0.0,
            e_start=1.4,
            e_max=62.0,
        )
        np.testing.assert_allclose(
            predict_loss(1.0e9, 1.0e10, 8.0, params), 2.0, rtol=1.0e-12
        )

    def test_interaction_inert_at_one_expert_with_unit_anchor(self):
        """log Ehat = 0 there, so the interaction term must vanish exactly."""
        base = dict(
            coef_N=406.4,
            coef_E=0.7,
            coef_D=410.7,
            irreducible=1.2,
            alpha=0.34,
            beta=0.45,
            gamma=0.30,
            e_start=1.0,
            e_max=64.0,
        )
        with_term = ScalingLawParams(interaction=0.01, **base)
        without = ScalingLawParams(interaction=0.0, **base)
        n = np.geomspace(1.0e6, 1.0e11, 7)
        got = predict_loss(n, 1.0e10, 1.0, with_term)
        np.testing.assert_array_equal(got, predict_loss(n, 1.0e10, 1.0, without))

    def test_decreasing_in_tokens(self, truth):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = 10.0 ** rng.uniform(6, 11)
            d = 10.0 ** rng.uniform(8, 12)
            e = float(rng.integers(1, 65))
            assert predict_loss(n, d * 1.01, e, truth) < predict_loss(n, d, e, truth)

    def test_decreasing_in_size_for_nonpositive_interaction(self, truth):
        assert truth.interaction < 0
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = 10.0 ** rng.uniform(6, 11)
            d = 10.0 ** rng.uniform(8, 12)
            e = float(rng.integers(1, 65))
            assert predict_loss(n * 1.01, d, e, truth) < predict_loss(n, d, e, truth)

    def test_decreasing_in_experts_without_interaction(self, truth):
        flat = dataclasses.replace(truth, interaction=0.0)
        e = np.arange(1.0, 129.0)
        losses = predict_loss(2.0e8, 1.0e10, e, flat)
        assert np.all(np.diff(losses) < 0)

    def test_matches_dense_law_when_experts_are_inert(self, dense_truth):
        """With a frozen expert term the expert-aware law is the dense law."""
        moe = ScalingLawParams(
            coef_N=dense_truth.coef_N,
            coef_E=1.0e-300,
            coef_D=dense_truth.coef_D,
            irreducible=dense_truth.l0,
            alpha=dense_truth.alpha,
            beta=1.0,
            gamma=dense_truth.beta,
            interaction=0.0,
            e_start=1.0,
            e_max=64.0,
        )
        rng = np.random.default_rng(5)
        n = 10.0 ** rng.uniform(6, 11, size=100)
        d = 10.0 ** rng.uniform(8, 12, size=100)
        np.testing.assert_allclose(
            predict_loss(n, d, 1.0, moe),
            predict_loss_dense(n, d, dense_truth),
            rtol=1.0e-9,
        )

    def test_rejects_nonpositive_sizes(self, truth):
        with pytest.raises(ValueError):
            predict_loss(0.0, 1.0e10, 8.0, truth)
        with pytest.raises(ValueError):
            predict_loss(1.0e9, -1.0, 8.0, truth)

    def test_rejects_nonpositive_bracket(self):
        """A negative irreducible term can sink the whole bracket at scale."""
        params = ScalingLawParams(
            coef_N=1.0,
            coef_E=1.0e-300,
            coef_D=1.0,
            irreducible=-0.5,
            alpha=1.0,
            beta=1.0,
            gamma=1.0,
            interaction=0.0,
            e_start=1.0,
            e_max=64.0,
        )
        with pytest.raises(ValueError):
            predict_loss(1.0e9, 1.0e9, 1.0, params)


class TestPredictLossDense:
    def test_frozen_oracle_value(self, dense_truth):
        # 1.69 + 406.4/10^(9*0.34) + 410.7/10^(10*0.28), fixed by hand once.
        got = predict_loss_dense(1.0e9, 1.0e10, dense_truth)
        np.testing.assert_allclose(got, 2.6948752371019298, rtol=1.0e-15)

    def test_asymptote_is_the_floor(self):
        params = DenseLawParams(
            l0=1.69, coef_N=406.4, coef_D=410.7, alpha=0.5, beta=0.5
        )
        assert abs(predict_loss_dense(1.0e18, 1.0e18, params) - 1.69) < 1.0e-6

    def test_size_term_halves_when_size_doubles(self):
        params = DenseLawParams(
            l0=1.69, coef_N=406.4, coef_D=410.7, alpha=1.0, beta=0.28
        )
        d = 1.0e10
        rest = params.l0 + params.coef_D * d**-params.beta
        term = predict_loss_dense(1.0e8, d, params) - rest
        half = predict_loss_dense(2.0e8, d, params) - rest
        np.testing.assert_allclose(term, 2.0 * half, rtol=1.0e-9)


class TestParamCounting:
    def test_total_params_hand_values(self, arch):
        assert total_params(3.0e9, 8.0, arch) == 1.0e10
        assert total_params(81395712.0, 4.0, arch) == 162791424.0

    def test_total_collapses_for_one_expert(self, arch):
        n = np.geomspace(1.0e6, 1.0e11, 9)
        np.testing.assert_array_equal(total_params(n, 1.0, arch), n)

    def test_activated_hand_value(self, arch):
        assert arch.top_k == 2
        assert activated_params(3.0e9, 8.0, arch) == 4.0e9

    def test_activated_with_single_routing(self):
        arch = ArchitectureConvention(top_k=1)
        assert activated_params(3.0e9, 8.0, arch) == 3.0e9

    def test_one_expert_makes_all_counts_equal(self, arch):
        n = 7.3e8
        assert total_params(n, 1.0, arch) == activated_params(n, 1.0, arch) == n

    def test_ordering_with_equality_only_at_one_expert(self, arch):
        for e in [1.0, 2.0, 4.0, 8.0, 64.0]:
            tot = total_params(2.0e8, e, arch)
            act = activated_params(2.0e8, e, arch)
            assert tot >= act >= 2.0e8
            if e == 1.0:
                assert tot == act == 2.0e8
            elif e <= arch.top_k:
                assert tot == act > 2.0e8  # every expert already activated
            else:
                assert tot > act > 2.0e8

    def test_training_flops_hand_values(self, arch):
        assert training_flops(1.0e9, 1.0e6, 1.0, arch) == 6.0e15
        # 8 experts with top-2 routing activate 4/3 of the dense size.
        assert training_flops(1.0e9, 1.0e6, 8.0, arch) == 8.0e15

    def test_training_flops_linear_in_tokens(self, arch):
        f1 = training_flops(5.0e8, 1.0e9, 16.0, arch)
        f2 = training_flops(5.0e8, 2.0e9, 16.0, arch)
        assert f2 == 2.0 * f1


class TestSuggestedLearningRate:
    def test_anchor_values(self):
        assert suggested_learning_rate(1.0) == 0.003239
        np.testing.assert_allclose(
            suggested_learning_rate(math.exp(10.0)),
            0.003239 - 0.0001395 * 10.0,
            rtol=1.0e-12,
        )

    def test_decreasing_in_size(self):
        n = np.geomspace(1.0e6, 1.0e10, 50)
        lr = suggested_learning_rate(n)
        assert np.all(np.diff(lr) < 0)
        assert np.all(lr > 0)


class TestParamSerialization:
    def test_moe_round_trip(self, truth):
        assert ScalingLawParams.from_json(truth.to_json()) == truth

    def test_dense_round_trip(self, dense_truth):
        assert DenseLawParams.from_json(dense_truth.to_json()) == dense_truth

    def test_unknown_key_rejected(self, truth):
        data = json.loads(truth.to_json())
        data["extra"] = 1.0
        with pytest.raises(ValueError, match="extra"):
            ScalingLawParams.from_dict(data)

    def test_missing_key_rejected(self, truth):
        data = json.loads(truth.to_json())
        del data["coef_D"]
        with pytest.raises(ValueError, match="coef_D"):
            ScalingLawParams.from_dict(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coef_N", 0.0),
            ("coef_E", -1.0),
            ("alpha", -0.1),
            ("gamma", 4.5),
            ("e_start", 0.9),
            ("e_max", 1.4),  # must exceed e_start = 1.4
            ("e_max", math.inf),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(TRUTH, **{field: value})

    @pytest.mark.parametrize(
        "record, field, value",
        [
            (TRUTH, "coef_N", math.inf),
            (TRUTH, "alpha", math.nan),
            (TRUTH, "e_start", math.inf),
            (DENSE_TRUTH, "l0", math.nan),
            (DENSE_TRUTH, "coef_D", math.inf),
            (ArchitectureConvention(), "flops_per_param_token", math.inf),
            (ArchitectureConvention(), "top_k", math.nan),
            (ArchitectureConvention(), "ffn_fraction", math.nan),
        ],
    )
    def test_non_finite_field_is_named(self, record, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            dataclasses.replace(record, **{field: value})

    @pytest.mark.parametrize(
        "value, message",
        [("0.34", "alpha must be a number"), (True, "alpha must be a number"), (None, "alpha must be a number"),
         ([0.34], "alpha must be a number"), (math.inf, "alpha must be finite"), (10**400, "alpha must be finite")],
        ids=["numeric_string", "bool", "null", "list", "infinity", "integer_past_float_range"],
    )
    def test_from_dict_takes_only_finite_numbers(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScalingLawParams.from_dict({**TRUTH.to_dict(), "alpha": value})

    def test_from_dict_converts_integers_to_float(self):
        params = DenseLawParams.from_dict({**DENSE_TRUTH.to_dict(), "l0": 2})
        assert params.l0 == 2.0 and isinstance(params.l0, float)
        assert params.to_json() == DenseLawParams.from_json(params.to_json()).to_json()

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="expected a JSON object of DenseLawParams fields"):
            DenseLawParams.from_json("[1.69]")

    def test_dense_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DENSE_TRUTH, coef_N=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(DENSE_TRUTH, beta=5.0)


@st.composite
def laws(draw):
    """Valid expert laws; irreducible reaches far enough below zero that
    some points sink the bracket."""
    e_start = draw(st.floats(1.0, 8.0))
    return ScalingLawParams(
        coef_N=draw(st.floats(1e-2, 1e3)),
        coef_E=draw(st.floats(1e-2, 10.0)),
        coef_D=draw(st.floats(1e-2, 1e3)),
        irreducible=draw(st.floats(-3.0, 3.0)),
        alpha=draw(st.floats(0.0, 1.0)),
        beta=draw(st.floats(0.0, 1.0)),
        gamma=draw(st.floats(0.0, 1.0)),
        interaction=draw(st.floats(-0.05, 0.05)),
        e_start=e_start,
        e_max=e_start + draw(st.floats(1e-3, 200.0)),
    )


sizes = st.floats(1e4, 1e14)
tokens = st.floats(1e6, 1e14)
experts = st.one_of(st.just(1.0), st.floats(1.0, 256.0))


def _outcome(fn, *args):
    """Result bits, or the error message: what a caller can observe."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


class TestUncheckedCores:
    """The cores the searches call are the public functions' arithmetic, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(laws(), sizes, tokens, experts)
    def test_loss_core_equals_predict_loss_on_scalars(self, params, n, d, e):
        assert _outcome(_loss, n, d, e, params) == _outcome(predict_loss, n, d, e, params)

    @settings(max_examples=100, deadline=None)
    @given(laws(), st.lists(st.tuples(sizes, tokens, experts), min_size=1, max_size=8))
    def test_loss_core_equals_predict_loss_on_arrays(self, params, points):
        n, d, e = (np.array(column) for column in zip(*points))
        assert _outcome(_loss, n, d, e, params) == _outcome(predict_loss, n, d, e, params)

    def test_loss_core_raises_the_bracket_error(self):
        params = dataclasses.replace(TRUTH, irreducible=-1.15)
        with pytest.raises(ValueError, match="bracket is nonpositive") as public:
            predict_loss(1.0e12, 1.0e14, 32.0, params)
        with pytest.raises(ValueError, match="bracket is nonpositive") as core:
            _loss(1.0e12, 1.0e14, 32.0, params)
        assert str(core.value) == str(public.value)

    @settings(max_examples=300, deadline=None)
    @given(
        sizes,
        experts,
        st.floats(0.0, 1.0),
        st.integers(1, 8),
    )
    def test_expanded_equals_the_counts(self, n, e, ffn, top_k):
        arch = ArchitectureConvention(ffn_fraction=ffn, top_k=top_k)
        assert _expanded(n, e, arch) == total_params(n, e, arch)
        assert _expanded(n, min(float(top_k), e), arch) == activated_params(n, e, arch)
        e_arr = np.array([1.0, e])
        np.testing.assert_array_equal(_expanded(n, e_arr, arch), total_params(n, e_arr, arch))
