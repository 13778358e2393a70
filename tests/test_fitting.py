"""Fitting machinery: Huber objective, multi-start recovery, CSV I/O."""

import dataclasses
import math

import numpy as np
import pytest

from moescale import (
    FitConfig,
    IdentifiabilityWarning,
    TrainingRun,
    fit_dense,
    fit_moe,
    huber,
    objective,
    predict_loss,
    predict_loss_dense,
    rmsle,
    rmsle_dense,
    runs_from_csv,
    runs_to_csv,
)
from moescale.fitting import (
    _BRACKET_FLOOR,
    _PENALTY_BASE,
    _dense_kernel,
    _moe_kernel,
    _objective_grad,
    _run_arrays,
    _theta_from_params,
)

from conftest import DENSE_TRUTH, TRUTH


def small_design(truth, sigma=0.0, seed=0):
    """64-run noise-free-capable design, cheaper than the full 100."""
    from moescale import SynthSpec, synth_runs

    spec = SynthSpec(
        ground_truth=truth,
        n_dense=(1.0e8, 2.0e8, 3.2e8, 7.3e8),
        d_tokens=(2.5e9, 5.0e9, 1.0e10, 2.0e10),
        experts=(1.0, 4.0, 8.0, 32.0),
        noise_sigma=sigma,
        rng_seed=seed,
    )
    return synth_runs(spec)


TRUTH_SINGLETON_GRID = {
    "alpha": (TRUTH.alpha,),
    "beta": (TRUTH.beta,),
    "gamma": (TRUTH.gamma,),
    "log_coef_n": (math.log(TRUTH.coef_N),),
    "log_coef_e": (math.log(TRUTH.coef_E),),
    "log_coef_d": (math.log(TRUTH.coef_D),),
    "interaction": (TRUTH.interaction,),
    "irreducible": (TRUTH.irreducible,),
}


@pytest.fixture(scope="module")
def clean_runs64():
    return small_design(TRUTH)


@pytest.fixture(scope="module")
def moe_fit_clean(clean_runs64):
    return fit_moe(clean_runs64, FitConfig(max_starts=192))


class TestHuber:
    def test_zero_residual(self):
        assert huber(0.0, 1.0e-3) == 0.0

    def test_at_the_knee(self):
        assert huber(1.0e-3, 1.0e-3) == 5.0e-7

    def test_linear_branch(self):
        np.testing.assert_allclose(huber(2.0e-3, 1.0e-3), 1.5e-6, rtol=1.0e-15)

    def test_continuous_at_the_knee(self):
        delta = 1.0e-3
        eps = 1.0e-12
        below = huber(delta - eps, delta)
        above = huber(delta + eps, delta)
        assert abs(above - below) < 1.0e-14

    def test_symmetric_and_vectorized(self):
        r = np.array([-2.0e-3, -1.0e-3, 0.0, 1.0e-3, 2.0e-3])
        out = huber(r, 1.0e-3)
        np.testing.assert_array_equal(out, out[::-1])
        assert out.shape == r.shape

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            huber(1.0, 0.0)


class TestObjective:
    def test_zero_at_the_generating_params(self, truth, runs_clean):
        assert objective(truth, runs_clean) <= 1.0e-15 * len(runs_clean)

    def test_single_run_known_value(self, truth):
        """One run off by a factor e^1e-4 sits on the quadratic branch."""
        clean = float(predict_loss(2.0e8, 1.0e10, 8.0, truth))
        run = TrainingRun(2.0e8, 1.0e10, 8.0, clean * math.exp(1.0e-4))
        np.testing.assert_allclose(
            objective(truth, [run]), 5.0e-9, rtol=1.0e-10
        )

    def test_permutation_invariant_bitwise(self, truth, runs_noisy):
        shuffled = list(runs_noisy)
        np.random.default_rng(9).shuffle(shuffled)
        assert objective(truth, shuffled) == objective(truth, runs_noisy)

    def test_nonpositive_bracket_penalized_not_raised(self, runs_clean):
        sunk = dataclasses.replace(TRUTH, irreducible=-5.0)
        val = objective(sunk, runs_clean)
        assert math.isfinite(val)
        assert val > 1.0e6


class TestRmsle:
    def test_zero_on_exact_fit(self, truth, runs_clean):
        assert rmsle(truth, runs_clean) < 1.0e-15

    def test_single_run_ratio(self, truth):
        clean = float(predict_loss(2.0e8, 1.0e10, 8.0, truth))
        run = TrainingRun(2.0e8, 1.0e10, 8.0, clean * math.exp(0.01))
        np.testing.assert_allclose(rmsle(truth, [run]), 0.01, rtol=1.0e-10)

    def test_dense_variant(self, dense_truth):
        clean = float(predict_loss_dense(1.0e9, 1.0e10, dense_truth))
        run = TrainingRun(1.0e9, 1.0e10, 1.0, clean * math.exp(0.01))
        np.testing.assert_allclose(
            rmsle_dense(dense_truth, [run]), 0.01, rtol=1.0e-10
        )


class TestFitMoe:
    def test_recovers_noise_free_design(self, clean_runs64, moe_fit_clean):
        assert rmsle(moe_fit_clean.params, clean_runs64) < 1.0e-6

    def test_report_bookkeeping(self, clean_runs64, moe_fit_clean):
        rep = moe_fit_clean
        assert rep.n_runs == 64
        assert rep.n_train == 51 and rep.n_holdout == 13
        assert rep.starts_run == 192 == len(rep.per_start)
        assert rep.rmsle_holdout is not None
        assert rep.rmsle_holdout < 1.0e-6

    def test_local_search_cannot_worsen_its_start(self, truth):
        """Seeded at the truth, the fit must end at least as good."""
        runs = small_design(truth, sigma=0.002, seed=3)
        cfg = FitConfig(
            grid_spec=TRUTH_SINGLETON_GRID,
            use_full_grid=True,
            holdout_fraction=0.0,
            e_start_init=truth.e_start,
            e_max_init=truth.e_max,
        )
        rep = fit_moe(runs, cfg)
        assert rep.starts_run == 1
        truth_obj = objective(truth, runs, cfg)
        assert rep.objective <= truth_obj * (1.0 + 1.0e-12)
        np.testing.assert_allclose(
            rep.per_start[0].initial_objective, truth_obj, rtol=1.0e-9
        )

    def test_never_worse_than_any_sampled_start(self, moe_fit_clean):
        best_init = min(d.initial_objective for d in moe_fit_clean.per_start)
        assert moe_fit_clean.objective <= best_init

    def test_bitwise_reproducible(self, clean_runs64):
        cfg = FitConfig(max_starts=24)
        a = fit_moe(clean_runs64, cfg)
        b = fit_moe(clean_runs64, cfg)
        assert a.params == b.params
        assert a.objective == b.objective

    def test_input_order_irrelevant(self, clean_runs64):
        cfg = FitConfig(max_starts=24)
        shuffled = list(clean_runs64)
        np.random.default_rng(17).shuffle(shuffled)
        assert fit_moe(shuffled, cfg).params == fit_moe(clean_runs64, cfg).params

    def test_scale_consistency(self, truth, clean_runs64, moe_fit_clean):
        """Scaling every loss by k must scale predictions by k."""
        k = 1.7
        scaled = [
            TrainingRun(r.n_dense, r.d_tokens, r.experts, r.val_loss * k)
            for r in clean_runs64
        ]
        rep = fit_moe(scaled, FitConfig(max_starts=192))
        assert rmsle(rep.params, scaled) < 1.0e-3
        n = np.array([r.n_dense for r in clean_runs64])
        d = np.array([r.d_tokens for r in clean_runs64])
        e = np.array([r.experts for r in clean_runs64])
        np.testing.assert_allclose(
            predict_loss(n, d, e, rep.params),
            k * predict_loss(n, d, e, moe_fit_clean.params),
            rtol=1.0e-3,
        )

    def test_small_sample_warns_but_proceeds(self, truth):
        # First 8 design rows share one model size, so the degenerate-axis
        # warning fires alongside the sample-size one.
        runs = small_design(truth)[:8]
        with pytest.warns(IdentifiabilityWarning) as record:
            rep = fit_moe(runs, FitConfig(max_starts=4, holdout_fraction=0.0))
        messages = [str(w.message) for w in record]
        assert any("8 runs" in m for m in messages)
        assert rep.n_runs == 8

    def test_degenerate_axis_warns_and_is_noted(self, truth):
        runs = [
            r for r in small_design(truth) if r.n_dense == 1.0e8
        ]
        with pytest.warns(IdentifiabilityWarning, match="N"):
            rep = fit_moe(runs, FitConfig(max_starts=4))
        assert any("N" in note for note in rep.notes)


@pytest.fixture(scope="module")
def dense_runs():
    runs = []
    for n in (1.0e8, 2.0e8, 3.2e8, 7.3e8, 1.5e9):
        for d in (2.5e9, 5.0e9, 1.0e10, 2.0e10, 4.0e10):
            loss = float(predict_loss_dense(n, d, DENSE_TRUTH))
            runs.append(TrainingRun(n, d, 1.0, loss))
    return runs


class TestFitDense:

    def test_recovers_noise_free_design(self, dense_runs):
        rep = fit_dense(dense_runs, FitConfig(max_starts=256))
        assert rmsle_dense(rep.params, dense_runs) < 1.0e-6

    def test_rejects_expert_rows(self, dense_runs):
        bad = dense_runs + [TrainingRun(1.0e8, 1.0e10, 8.0, 2.0)]
        with pytest.raises(ValueError, match="experts"):
            fit_dense(bad)

    def test_single_size_warns_naming_the_axis(self, dense_truth):
        runs = [
            TrainingRun(1.0e8, d, 1.0, float(predict_loss_dense(1.0e8, d, dense_truth)))
            for d in np.geomspace(1.0e9, 1.0e11, 12)
        ]
        with pytest.warns(IdentifiabilityWarning, match="N"):
            rep = fit_dense(runs, FitConfig(max_starts=4))
        assert any("N" in note for note in rep.notes)


class TestAnalyticGradients:
    """Central-difference checks of J^T clip(r, ±delta) from each law's kernel,
    away from the Huber knee, and of the MoE penalty branch."""

    # Residual offsets are either well inside the quadratic region or well
    # outside it; a finite-difference step cannot cross |r| = delta.
    OFFSETS = (0.05, -0.03, 1.0e-4, 0.02, -5.0e-5, 0.04, -0.02, 8.0e-5)

    def _offset_runs(self, clean_runs):
        out = []
        for i, r in enumerate(clean_runs[:24]):
            off = self.OFFSETS[i % len(self.OFFSETS)]
            out.append(
                TrainingRun(r.n_dense, r.d_tokens, r.experts, r.val_loss * math.exp(off))
            )
        return out

    @staticmethod
    def _check_against_finite_differences(kernel, theta, data, delta=1.0e-3):
        _, grad = _objective_grad(kernel(theta, *data), delta)
        for k in range(len(theta)):
            h = 1.0e-6 * max(1.0, abs(theta[k]))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fp, _ = _objective_grad(kernel(tp, *data), delta)
            fm, _ = _objective_grad(kernel(tm, *data), delta)
            fd = (fp - fm) / (2.0 * h)
            np.testing.assert_allclose(grad[k], fd, rtol=1.0e-5, atol=1.0e-10)

    def test_moe_gradient_matches_finite_differences(self, truth, clean_runs64):
        data = _run_arrays(self._offset_runs(clean_runs64))
        self._check_against_finite_differences(_moe_kernel, _theta_from_params(truth), data)

    def test_moe_penalty_gradient_matches_finite_differences(self, truth, clean_runs64):
        data = _run_arrays(clean_runs64)
        theta = _theta_from_params(truth)
        theta[7] = -1.3  # sinks some brackets below the floor, not all
        ev = _moe_kernel(theta, *data)
        bad = ~ev.valid
        assert 0 < np.count_nonzero(bad) < len(bad)

        # The penalty is a constant base plus the summed bracket deficit;
        # difference the deficit alone, since the base would swamp the step.
        def deficit(t):
            return float(np.sum(_BRACKET_FLOOR - _moe_kernel(t, *data).bracket[bad]))

        obj, grad = _objective_grad(ev, 1.0e-3)
        assert obj == _PENALTY_BASE + deficit(theta)
        for k in range(len(theta)):
            h = 1.0e-6 * max(1.0, abs(theta[k]))
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (deficit(tp) - deficit(tm)) / (2.0 * h)
            np.testing.assert_allclose(grad[k], fd, rtol=1.0e-5, atol=1.0e-10)

    def test_dense_gradient_matches_finite_differences(self, dense_truth):
        runs = []
        i = 0
        for n in (1.0e8, 3.2e8, 1.5e9):
            for d in (2.5e9, 1.0e10, 4.0e10):
                off = self.OFFSETS[i % len(self.OFFSETS)]
                loss = float(predict_loss_dense(n, d, dense_truth)) * math.exp(off)
                runs.append(TrainingRun(n, d, 1.0, loss))
                i += 1
        theta = np.array(
            [
                dense_truth.alpha,
                dense_truth.beta,
                math.log(dense_truth.coef_N),
                math.log(dense_truth.coef_D),
                dense_truth.l0,
            ]
        )
        self._check_against_finite_differences(_dense_kernel, theta, _run_arrays(runs))

    def test_nearly_coincident_expert_anchors_stay_finite(self, truth, clean_runs64):
        """At the fit's lower bound v = -30 the anchor gap is ~1e-13."""
        data = _run_arrays(clean_runs64)
        theta = _theta_from_params(truth)
        theta[9] = -30.0
        with np.errstate(all="raise"):
            ev = _moe_kernel(theta, *data)
            obj, grad = _objective_grad(ev, 1.0e-3)
        assert ev.valid.all()
        assert math.isfinite(obj)
        assert np.all(np.isfinite(grad))
        # The public law with the same anchors agrees with the kernel.
        params = dataclasses.replace(truth, e_max=truth.e_start + math.exp(-30.0))
        x, z, e, y = data
        np.testing.assert_allclose(
            ev.resid, np.log(predict_loss(np.exp(x), np.exp(z), e, params)) - y, rtol=0.0, atol=1.0e-12
        )


class TestRunsCsv:
    def test_round_trip_is_bitwise(self, tmp_path, runs_noisy):
        path = tmp_path / "runs.csv"
        runs_to_csv(runs_noisy, path)
        back = runs_from_csv(path)
        assert back == runs_noisy

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n_dense,d_tokens,val_loss\n1e8,1e10,2.0\n")
        with pytest.raises(ValueError, match="experts"):
            runs_from_csv(path)

    def test_bad_cell_names_column_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "n_dense,d_tokens,experts,val_loss\n"
            "1e8,1e10,1,2.0\n"
            "1e8,oops,1,2.0\n"
        )
        with pytest.raises(ValueError, match="line 3.*d_tokens"):
            runs_from_csv(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(
            "seed,n_dense,d_tokens,experts,val_loss\n7,1e8,1e10,4,1.9\n"
        )
        runs = runs_from_csv(path)
        assert runs == [TrainingRun(1.0e8, 1.0e10, 4.0, 1.9)]

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n_dense,d_tokens,experts,val_loss\n")
        with pytest.raises(ValueError, match="no data"):
            runs_from_csv(path)
