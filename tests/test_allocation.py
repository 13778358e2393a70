"""Budget allocation: dense closed form, loss-optimal search, and the two
bounded-objective algorithms plus the frontier sweep built on them."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moescale import (
    ArchitectureConvention,
    CostBoundUnreachableError,
    DenseLawParams,
    MoescaleError,
    NoFeasibleGpuError,
    NonMonotoneBranchError,
    QualityBoundUnreachableError,
    ScalingLawParams,
    SearchBoundsError,
    SearchConfig,
    cost_table,
    dense_optimal,
    fit_geometry,
    flops_ratio_to_match,
    frontier_sweep,
    loss_optimal_result,
    min_cost_for_bounded_loss,
    min_cost_over_gpus,
    min_loss_for_bounded_cost,
    moe_loss_optimal,
    predict_loss,
    training_flops,
)
from moescale.allocation import _bisect, _check_decreasing_branch
from moescale.synth import dense_optimal_numeric, grid_argmin_loss

from conftest import GEOMETRY_ROWS
from test_inference import measured_setups, measured_style_profile, serving_setups

BUDGET = 1.0e20


def random_law(rng):
    """Plausibly shaped law constants: saturating experts, mild interaction."""
    e_start = rng.uniform(1.2, 1.8)
    return ScalingLawParams(
        coef_N=rng.uniform(100.0, 600.0),
        coef_E=rng.uniform(0.3, 3.0),
        coef_D=rng.uniform(100.0, 600.0),
        irreducible=rng.uniform(0.5, 2.0),
        alpha=rng.uniform(0.25, 0.45),
        beta=rng.uniform(0.3, 0.6),
        gamma=rng.uniform(0.25, 0.45),
        interaction=rng.uniform(-0.008, -0.001),
        e_start=e_start,
        e_max=rng.uniform(40.0, 80.0),
    )


class TestDenseOptimal:
    EXAMPLE = DenseLawParams(l0=1.0, coef_N=2.0, coef_D=3.0, alpha=0.5, beta=1.0)

    def test_worked_example(self):
        """alpha=1/2, beta=1, A=2, B=3 at 6e6 flops: the prefactor is
        (1/3)^(2/3) and the optimum lands at N ~ 4807.5, D ~ 208.0."""
        n, d = dense_optimal(6.0e6, self.EXAMPLE)
        g = (1.0 / 3.0) ** (2.0 / 3.0)
        np.testing.assert_allclose(n, g * 1.0e6 ** (2.0 / 3.0), rtol=1.0e-12)
        np.testing.assert_allclose(n, 4807.498567691358, rtol=1.0e-13)
        np.testing.assert_allclose(n * d * 6.0, 6.0e6, rtol=1.0e-15)
        # tokens come back as exact budget spend; the closed-form route for
        # D agrees to float error but not bitwise
        np.testing.assert_allclose(d, 1.0e6 ** (1.0 / 3.0) / g, rtol=1.0e-12)

    def test_symmetric_law_splits_evenly(self):
        params = DenseLawParams(l0=1.0, coef_N=5.0, coef_D=5.0, alpha=0.4, beta=0.4)
        n, d = dense_optimal(6.0e8, params)
        np.testing.assert_allclose(n, math.sqrt(1.0e8), rtol=1.0e-12)
        np.testing.assert_allclose(d, n, rtol=1.0e-12)

    def test_first_order_conditions(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            params = DenseLawParams(
                l0=rng.uniform(0.5, 2.0),
                coef_N=rng.uniform(100.0, 600.0),
                coef_D=rng.uniform(100.0, 600.0),
                alpha=rng.uniform(0.3, 0.5),
                beta=rng.uniform(0.3, 0.5),
            )
            budget = 10.0 ** rng.uniform(18, 21)
            n, d = dense_optimal(budget, params)
            lam1 = params.alpha * params.coef_N / (n ** (params.alpha + 1.0) * 6.0 * d)
            lam2 = params.beta * params.coef_D / (d ** (params.beta + 1.0) * 6.0 * n)
            np.testing.assert_allclose(lam1, lam2, rtol=1.0e-8)

    def test_agrees_with_numeric_twin(self):
        n, d = dense_optimal(6.0e6, self.EXAMPLE)
        n2, d2 = dense_optimal_numeric(6.0e6, self.EXAMPLE)
        np.testing.assert_allclose(n, n2, rtol=1.0e-3)
        np.testing.assert_allclose(d, d2, rtol=1.0e-3)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            dense_optimal(0.0, self.EXAMPLE)


class TestMoeLossOptimal:
    def test_beats_or_matches_grid_scan(self, truth, arch):
        for experts in (1.0, 8.0, 32.0):
            n_opt, _, loss_opt = moe_loss_optimal(BUDGET, experts, truth, arch)
            n_grid, loss_grid = grid_argmin_loss(BUDGET, experts, truth, arch)
            assert loss_opt <= loss_grid * (1.0 + 1.0e-12)
            cell = (1.0e13 / 1.0e5) ** (1.0 / 4095.0)
            assert n_grid / cell <= n_opt <= n_grid * cell

    def test_exact_budget_spend(self, truth, arch):
        n, d, _ = moe_loss_optimal(BUDGET, 8.0, truth, arch)
        np.testing.assert_allclose(
            training_flops(n, d, 8.0, arch), BUDGET, rtol=1.0e-12
        )

    def test_single_expert_reduces_to_dense_law(self, arch):
        dense = DenseLawParams(l0=1.2, coef_N=406.4, coef_D=410.7, alpha=0.34, beta=0.30)
        as_moe = ScalingLawParams(
            coef_N=dense.coef_N,
            coef_E=1.0e-300,
            coef_D=dense.coef_D,
            irreducible=dense.l0,
            alpha=dense.alpha,
            beta=1.0,
            gamma=dense.beta,
            interaction=0.0,
            e_start=1.0,
            e_max=64.0,
        )
        n_moe, _, _ = moe_loss_optimal(BUDGET, 1.0, as_moe, arch)
        n_dense, _ = dense_optimal(BUDGET, dense)
        np.testing.assert_allclose(n_moe, n_dense, rtol=1.0e-3)

    def test_symmetric_exponents_scale_as_sqrt_budget(self, truth, arch):
        """With alpha = gamma and no interaction the optimum grows as C^0.5."""
        params = dataclasses.replace(truth, alpha=0.35, gamma=0.35, interaction=0.0)
        n1, _, _ = moe_loss_optimal(BUDGET, 8.0, params, arch)
        n4, _, _ = moe_loss_optimal(4.0 * BUDGET, 8.0, params, arch)
        np.testing.assert_allclose(n4 / n1, 2.0, rtol=1.0e-4)

    def test_slice_is_unimodal(self, truth, arch):
        from moescale.allocation import _loss_on_slice

        x = np.geomspace(1.0e5, 1.0e13, 1000)
        losses = np.array([_loss_on_slice(n, BUDGET, 8.0, truth, arch) for n in x])
        d = np.diff(losses)
        # one sign change, downhill to uphill, and no later reversals
        sign_flips = np.nonzero(np.sign(d[:-1]) != np.sign(d[1:]))[0]
        assert len(sign_flips) == 1
        assert d[0] < 0 and d[-1] > 0

    def test_pinned_lower_endpoint_raises(self, truth, arch):
        search = SearchConfig(n_bounds=(1.0e12, 1.0e13))
        with pytest.raises(SearchBoundsError) as exc:
            moe_loss_optimal(BUDGET, 8.0, truth, arch, search)
        assert exc.value.endpoint == "lower"

    def test_pinned_upper_endpoint_raises(self, truth, arch):
        search = SearchConfig(n_bounds=(1.0e5, 1.0e6))
        with pytest.raises(SearchBoundsError) as exc:
            moe_loss_optimal(BUDGET, 8.0, truth, arch, search)
        assert exc.value.endpoint == "upper"


class TestBoundedLoss:
    def test_fixed_point_returns_the_optimum(self, truth, arch, hw, geom, profile):
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        r = min_cost_for_bounded_loss(BUDGET, 4.0, 4.0, truth, arch, hw, geom, profile)
        np.testing.assert_allclose(r.n_dense, base.n_dense, rtol=1.0e-5)
        np.testing.assert_allclose(r.cost_per_token, base.cost_per_token, rtol=1.0e-6)
        np.testing.assert_allclose(r.overtrain_ratio, 1.0, rtol=1.0e-5)

    def test_more_experts_serve_cheaper_at_matched_loss(
        self, truth, arch, hw, geom, profile
    ):
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        target = base.predicted_loss
        for e_prime in (8.0, 16.0):
            r = min_cost_for_bounded_loss(
                BUDGET, 4.0, e_prime, truth, arch, hw, geom, profile
            )
            assert r.predicted_loss <= target * (1.0 + 1.0e-9)
            assert r.cost_per_token < base.cost_per_token
            assert r.overtrain_ratio < 1.0
            np.testing.assert_allclose(r.training_flops, BUDGET, rtol=1.0e-9)

    def test_bisection_residual_over_random_laws(self, arch, geom, profile):
        from moescale import HardwareConfig

        # Roomy memory: some draws optimize to very large models, and the
        # point here is the bisection residual, not serving feasibility.
        roomy = HardwareConfig(gpu_mem_bytes=200.0 * 2**30)
        rng = np.random.default_rng(31)
        search = SearchConfig()
        for _ in range(100):
            params = random_law(rng)
            base_loss = moe_loss_optimal(BUDGET, 4.0, params, arch, search)[2]
            r = min_cost_for_bounded_loss(
                BUDGET, 4.0, 8.0, params, arch, roomy, geom, profile, search
            )
            assert r.predicted_loss <= base_loss * (1.0 + 1.0e-9)
            assert r.predicted_loss >= base_loss * (1.0 - 10.0 * search.rel_tol)

    def test_unreachable_target_raises_with_gap(self, truth, arch, hw, geom, profile):
        """A single expert cannot reach the 32-expert optimal loss."""
        with pytest.raises(QualityBoundUnreachableError) as exc:
            min_cost_for_bounded_loss(BUDGET, 32.0, 1.0, truth, arch, hw, geom, profile)
        assert exc.value.gap > 0

    def test_explicit_target_override(self, truth, arch, hw, geom, profile):
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        loose = base.predicted_loss * 1.001
        r = min_cost_for_bounded_loss(
            BUDGET, 4.0, 8.0, truth, arch, hw, geom, profile, target_loss=loose
        )
        assert r.predicted_loss <= loose * (1.0 + 1.0e-9)

    def test_branch_guard_catches_a_crossing_window(self, truth, arch):
        """Probing past the optimum is exactly what the guard must reject."""
        n_opt, _, _ = moe_loss_optimal(BUDGET, 8.0, truth, arch)
        with pytest.raises(NonMonotoneBranchError):
            _check_decreasing_branch(BUDGET, 8.0, truth, arch, 1.0e6, 100.0 * n_opt)


class TestBoundedCost:
    def test_fixed_point_returns_the_optimum(self, truth, arch, hw, geom, profile):
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        r = min_loss_for_bounded_cost(
            BUDGET, 4.0, 4.0, truth, arch, hw, geom, profile,
            cost_bound=base.cost_per_token,
        )
        np.testing.assert_allclose(r.predicted_loss, base.predicted_loss, rtol=1.0e-5)
        assert r.cost_per_token <= base.cost_per_token * (1.0 + 1.0e-9)

    def test_duality_with_bounded_loss(self, truth, arch, hw, geom, profile):
        """Round-trip of the two bounded searches: min-cost at bounded loss,
        then min-loss at that cost, must come back to (at least) the
        original quality."""
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        r1 = min_cost_for_bounded_loss(BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile)
        r2 = min_loss_for_bounded_cost(
            BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile,
            cost_bound=r1.cost_per_token,
        )
        assert r2.predicted_loss <= base.predicted_loss * (1.0 + 1.0e-4)

    def test_relaxing_the_bound_never_hurts(self, truth, arch, hw, geom, profile):
        base = loss_optimal_result(BUDGET, 4.0, truth, arch, hw, geom, profile)
        tight = min_loss_for_bounded_cost(
            BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile,
            cost_bound=base.cost_per_token * 0.5,
        )
        loose = min_loss_for_bounded_cost(
            BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile,
            cost_bound=base.cost_per_token * 0.75,
        )
        assert loose.predicted_loss <= tight.predicted_loss * (1.0 + 1.0e-12)
        assert tight.cost_per_token <= base.cost_per_token * 0.5 * (1.0 + 1.0e-9)

    def test_generous_bound_caps_at_the_loss_optimum(
        self, truth, arch, hw, geom, profile
    ):
        opt16 = loss_optimal_result(BUDGET, 16.0, truth, arch, hw, geom, profile)
        r = min_loss_for_bounded_cost(
            BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile, cost_bound=1.0e6
        )
        np.testing.assert_allclose(r.predicted_loss, opt16.predicted_loss, rtol=1.0e-6)
        np.testing.assert_allclose(r.overtrain_ratio, 1.0, rtol=1.0e-4)

    def test_hopeless_bound_raises_with_cheapest(self, truth, arch, hw, geom, profile):
        with pytest.raises(CostBoundUnreachableError) as exc:
            min_loss_for_bounded_cost(
                BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile, cost_bound=1.0e-12
            )
        assert exc.value.gap > 0
        assert math.isfinite(exc.value.cheapest)


class TestFrontierSweep:
    def test_row_shape_and_budget_spend(self, truth, arch, hw, geom, profile):
        budgets = (1.0e19, 1.0e20)
        experts = (4.0, 16.0)
        rows = frontier_sweep(budgets, experts, truth, arch, hw, geom, profile)
        assert len(rows) == len(budgets) * len(experts) * 65
        for row in rows:
            if not math.isnan(row["n_dense"]):
                np.testing.assert_allclose(
                    training_flops(row["n_dense"], row["d_tokens"], row["experts"], arch),
                    row["budget"],
                    rtol=1.0e-6,
                )
        kinds = {row["kind"] for row in rows}
        assert kinds == {"optimal", "curve"}

    def test_optimal_loss_non_increasing_in_experts(
        self, truth, arch, hw, geom, profile
    ):
        assert truth.interaction <= 0
        rows = frontier_sweep(
            (1.0e20,), (1.0, 4.0, 8.0, 16.0, 32.0), truth, arch, hw, geom, profile
        )
        opt = [r for r in rows if r["kind"] == "optimal"]
        opt.sort(key=lambda r: r["experts"])
        losses = [r["predicted_loss"] for r in opt]
        assert all(l2 <= l1 for l1, l2 in zip(losses, losses[1:]))

    def test_curve_brackets_its_optimum(self, truth, arch, hw, geom, profile):
        rows = frontier_sweep((1.0e20,), (8.0,), truth, arch, hw, geom, profile)
        opt = next(r for r in rows if r["kind"] == "optimal")
        curve = [r for r in rows if r["kind"] == "curve"]
        best_curve = min(r["predicted_loss"] for r in curve)
        assert best_curve >= opt["predicted_loss"] - 1.0e-12
        # within one grid cell of the true optimum
        cell = (1.5 / 0.05) ** (1.0 / 63.0)
        neighbor = predict_loss(
            opt["n_dense"] * cell,
            opt["d_tokens"] / cell,  # same budget, shifted size
            8.0,
            truth,
        )
        assert best_curve <= neighbor

    def test_serving_infeasibility_flags_rows_without_aborting(
        self, truth, arch, geom, profile
    ):
        from moescale import HardwareConfig

        tiny = HardwareConfig(gpu_mem_bytes=2.0**30, max_gpus=1)
        rows = frontier_sweep((1.0e20,), (8.0,), truth, arch, tiny, geom, profile)
        assert len(rows) == 65
        flagged = [r for r in rows if not r["feasible"]]
        assert flagged
        assert all(r["note"] for r in flagged)

    def test_unreachable_search_window_collapses_to_one_row(
        self, truth, arch, hw, geom, profile
    ):
        search = SearchConfig(n_bounds=(1.0e5, 1.0e6))
        rows = frontier_sweep(
            (1.0e20,), (8.0,), truth, arch, hw, geom, profile, search
        )
        assert len(rows) == 1
        assert not rows[0]["feasible"]
        assert math.isnan(rows[0]["n_dense"])

    def test_nonpositive_latency_rows_match_row_by_row_pricing(self, truth, arch, hw, geom):
        """A measured-style profile extrapolates to a nonpositive latency for
        the larger models: the sweep flags those rows and prices the rest,
        each row as cost_table and min_cost_over_gpus see its size alone."""
        profile = measured_style_profile()
        rows = frontier_sweep([1.0e22], [16.0], truth, arch, hw, geom, profile)
        assert len(rows) == 65
        notes = set()
        for row in rows:
            table = cost_table(row["n_dense"], 16.0, hw, geom, profile, arch)
            notes.update(r["note"] for r in table)
            assert row["feasible"] == any(r["feasible"] for r in table)
            try:
                choice = min_cost_over_gpus(row["n_dense"], 16.0, hw, geom, profile, arch)
            except NoFeasibleGpuError as exc:
                assert (row["feasible"], row["note"], row["best_gpus"]) == (False, str(exc), 0)
                assert "interpolated latency is nonpositive" in exc.notes
            else:
                assert (row["feasible"], row["note"]) == (True, "")
                assert (row["cost_per_token"], row["best_gpus"]) == (choice.cost_per_token, choice.gpus)
        assert "interpolated latency is nonpositive" in notes
        assert not all(row["feasible"] for row in rows)
        assert any(row["feasible"] for row in rows)


class TestFlopsRatio:
    def test_same_experts_is_unity(self, truth, arch):
        ratio = flops_ratio_to_match(BUDGET, 4.0, 4.0, truth, arch)
        np.testing.assert_allclose(ratio, 1.0, rtol=1.0e-5)

    def test_more_experts_need_less_compute(self, truth, arch):
        r8 = flops_ratio_to_match(BUDGET, 4.0, 8.0, truth, arch)
        r16 = flops_ratio_to_match(BUDGET, 4.0, 16.0, truth, arch)
        assert r16 < r8 < 1.0

    def test_matching_loss_at_scaled_budget(self, truth, arch):
        """The defining property: E' at ratio*C reaches the E-base optimum."""
        base_loss = moe_loss_optimal(BUDGET, 4.0, truth, arch)[2]
        ratio = flops_ratio_to_match(BUDGET, 4.0, 16.0, truth, arch)
        matched = moe_loss_optimal(ratio * BUDGET, 16.0, truth, arch)[2]
        np.testing.assert_allclose(matched, base_loss, rtol=1.0e-5)

    def test_too_narrow_span_raises(self, truth, arch):
        with pytest.raises(SearchBoundsError):
            flops_ratio_to_match(
                BUDGET, 4.0, 16.0, truth, arch, budget_span=(0.9, 1.1)
            )


class TestOvertrainCharacterization:
    def test_ratio_stays_in_unit_interval(self, truth, arch, hw, geom, profile):
        """Bounded-loss configs sit at or left of the optimum. The ratio
        tends to shrink as budget grows (more room to over-train), but that
        trend is descriptive, not asserted."""
        ratios = []
        for budget in (1.0e19, 1.0e20, 1.0e21):
            r = min_cost_for_bounded_loss(
                budget, 4.0, 16.0, truth, arch, hw, geom, profile
            )
            assert 0.0 < r.overtrain_ratio <= 1.0
            ratios.append(r.overtrain_ratio)


def _entries(truth, arch, hw, geom, profile):
    """Every public allocation entry as f(budget, experts_base, experts_prime)."""
    serving = {"hw": hw, "geom": geom, "profile": profile}
    return {
        "moe_loss_optimal": lambda b, e0, e1: moe_loss_optimal(b, e1, truth, arch),
        "loss_optimal_result": lambda b, e0, e1: loss_optimal_result(b, e1, truth, arch, **serving),
        "bound_loss": lambda b, e0, e1: min_cost_for_bounded_loss(b, e0, e1, truth, arch, **serving),
        "bound_cost": lambda b, e0, e1: min_loss_for_bounded_cost(b, e0, e1, truth, arch, **serving),
        "frontier_sweep": lambda b, e0, e1: frontier_sweep([b], [e0, e1], truth, arch, **serving),
        "flops_ratio": lambda b, e0, e1: flops_ratio_to_match(b, e0, e1, truth, arch),
    }


ENTRIES = ("moe_loss_optimal", "loss_optimal_result", "bound_loss", "bound_cost", "frontier_sweep", "flops_ratio")
BAD_EXPERTS = [(0.5, "expert count must be >= 1"), (math.nan, "E must be finite"), (math.inf, "E must be finite")]


class TestInputBoundary:
    """Budget and experts are checked once, before any search evaluates the law."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "budget,experts,message",
        [(BUDGET, e, m) for e, m in BAD_EXPERTS]
        + [
            (0.0, 8.0, "budget_flops must be positive"),
            (math.nan, 8.0, "budget_flops must be positive"),
            (math.inf, 8.0, "budget_flops must be finite"),
        ],
    )
    def test_bad_input_raises_before_any_search(
        self, entry, budget, experts, message, truth, arch, hw, geom, profile, monkeypatch
    ):
        import moescale.allocation as alloc

        def searched(*args):
            raise AssertionError("a search ran before the inputs were checked")

        monkeypatch.setattr(alloc, "_loss", searched)
        monkeypatch.setattr(alloc, "min_cost_over_gpus", searched)
        with pytest.raises(ValueError) as exc:
            _entries(truth, arch, hw, geom, profile)[entry](budget, experts, experts)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("experts,message", BAD_EXPERTS)
    def test_bad_alternative_experts_raise(self, entry, experts, message, truth, arch, hw, geom, profile):
        with pytest.raises(ValueError) as exc:
            _entries(truth, arch, hw, geom, profile)[entry](BUDGET, 4.0, experts)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "bounds,message",
        [
            ((1.0e5, math.inf), "n_bounds must be finite"),
            ((math.nan, 1.0e13), "n_bounds must satisfy 0 < lo < hi"),
            ((1.0e5, math.nan), "n_bounds must satisfy 0 < lo < hi"),
            ((math.inf, math.inf), "n_bounds must satisfy 0 < lo < hi"),
        ],
    )
    def test_search_config_rejects_nonfinite_bounds(self, bounds, message):
        with pytest.raises(ValueError) as exc:
            SearchConfig(n_bounds=bounds)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "rel_tol,message",
        [
            (math.inf, "rel_tol must be finite"),
            (math.nan, "rel_tol must be positive"),
            (0.0, "rel_tol must be positive"),
            (1.0e-13, "rel_tol must be at least 1e-12"),
            (5.0e-324, "rel_tol must be at least 1e-12"),
        ],
    )
    def test_search_config_rejects_a_bad_tolerance(self, rel_tol, message):
        with pytest.raises(ValueError) as exc:
            SearchConfig(rel_tol=rel_tol)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "budgets,candidates,message",
        [
            ([BUDGET], [4.0, 0.5], "expert count must be >= 1"),
            ([BUDGET, math.inf], [4.0], "budget_flops must be finite"),
            ([BUDGET, 0.0], [4.0, math.nan], "E must be finite"),
            ([0.0, BUDGET], [4.0, math.nan], "budget_flops must be positive"),
        ],
    )
    def test_sweep_checks_every_pair_before_its_loop(
        self, budgets, candidates, message, truth, arch, hw, geom, profile, monkeypatch
    ):
        import moescale.allocation as alloc

        def searched(*args):
            raise AssertionError("the sweep priced a pair before checking them all")

        monkeypatch.setattr(alloc, "_loss", searched)
        with pytest.raises(ValueError) as exc:
            frontier_sweep(budgets, candidates, truth, arch, hw, geom, profile)
        assert str(exc.value) == message

    def test_overflowing_tokens_still_raise(self, truth, arch, hw, geom, profile):
        """A tiny lower bound leaves no parameters to spend the budget on."""
        search = SearchConfig(n_bounds=(1.0e-300, 1.0e13))
        with pytest.raises(ValueError, match="D must be finite"):
            min_cost_for_bounded_loss(BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile, search)

    def test_searches_report_through_the_public_law_only(self, truth, arch, hw, geom, profile, monkeypatch):
        """The loops evaluate the unchecked core; predict_loss prices only
        what is returned (each optimum and the reported row)."""
        import moescale.allocation as alloc

        calls = []
        public = alloc.predict_loss
        monkeypatch.setattr(alloc, "predict_loss", lambda *args: calls.append(args) or public(*args))
        moe_loss_optimal(BUDGET, 8.0, truth, arch)
        assert len(calls) == 1
        calls.clear()
        min_cost_for_bounded_loss(BUDGET, 4.0, 16.0, truth, arch, hw, geom, profile)
        assert len(calls) == 3


@st.composite
def planning_setups(draw):
    """A random or measured-style serving setup (the latter extrapolates to
    nonpositive latencies), a random law, a budget and an expert pair."""
    profile, hw, _, _ = draw(st.one_of(serving_setups(), measured_setups()))
    law = random_law(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    budget = 10.0 ** draw(st.floats(18.0, 22.0))
    e_base, e_prime = draw(st.tuples(*[st.sampled_from([1.0, 4.0, 8.0, 16.0, 32.0])] * 2))
    return profile, hw, law, budget, e_base, e_prime


class TestUnservableCells:
    """A GPU count that cannot serve reaches an answer only as a typed error
    or a flagged sweep row."""

    @settings(max_examples=80, deadline=None)
    @given(planning_setups())
    def test_answers_raise_only_typed_errors(self, setup):
        profile, hw, law, budget, e_base, e_prime = setup
        arch = ArchitectureConvention()
        serving = {"hw": hw, "geom": fit_geometry(GEOMETRY_ROWS), "profile": profile}
        answers = (
            lambda: loss_optimal_result(budget, e_prime, law, arch, **serving),
            lambda: min_cost_for_bounded_loss(budget, e_base, e_prime, law, arch, **serving),
            lambda: min_loss_for_bounded_cost(budget, e_base, e_prime, law, arch, **serving),
        )
        for answer in answers:
            try:
                answer()
            except MoescaleError:
                pass
        rows = frontier_sweep([budget], [e_base, e_prime], law, arch, curve_points=16, **serving)
        assert all(row["note"] for row in rows if not row["feasible"])


def one_point_at_a_time(lower, lo, hi, tol):
    """The plain bisection loop: one predicate call per midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lower(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestBatchedBisect:
    """Asking for several levels of midpoints per call walks the same path."""

    brackets = st.tuples(
        st.floats(-50.0, 50.0), st.floats(1e-6, 100.0), st.floats(0.0, 1.0), st.floats(1e-9, 1.0)
    )

    @settings(max_examples=300, deadline=None)
    @given(brackets, st.integers(1, 8))
    def test_same_bracket_bit_for_bit(self, bracket, depth):
        lo, width, where, tol = bracket
        root = lo + where * width
        want = one_point_at_a_time(lambda x: x < root, lo, lo + width, tol)
        got = _bisect(lambda xs: [x < root for x in xs], lo, lo + width, tol, depth)
        assert [v.hex() for v in got] == [v.hex() for v in want]
