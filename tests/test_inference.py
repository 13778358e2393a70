"""Serving-side model: KV geometry, batch sizing, latency interpolation,
throughput, and the cheapest-GPU-count search."""

import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moescale import (
    GeometryFit,
    HardwareConfig,
    InsufficientMemoryError,
    LatencyProfile,
    LatencySample,
    MissingProfileSliceError,
    NoFeasibleGpuError,
    UnservableError,
    cost_per_token,
    cost_table,
    fit_geometry,
    kv_cache_bytes_per_token,
    max_batch_size,
    min_cost_over_gpus,
    throughput,
    throughput_for_batch,
    total_params,
)

from moescale.inference import (
    NO_MEMORY,
    NO_SLICE,
    NONPOSITIVE_LATENCY,
    SERVABLE,
    ZERO_THROUGHPUT,
    cost_grid,
)

from conftest import GEOMETRY_ROWS


def constant_profile(latency_by_gpus, batches=(1.0, 8192.0), models=(1.0e8, 1.0e12)):
    """Flat latency surface per GPU count, same for both stages."""
    samples = []
    for stage in ("prompt", "decode"):
        for g, lat in latency_by_gpus.items():
            for b in batches:
                for m in models:
                    samples.append(LatencySample(stage, float(m), int(g), float(b), lat))
    return LatencyProfile(samples)


def scalar_interpolate(profile, stage, model_bytes, gpus, batch):
    """Independent reference for the profile lookup: the slice rebuilt from
    ``profile.samples``, the cell found by bisection on each axis, and the
    four corners summed from 0.0 as the module docstring orders them."""
    cell = {(s.batch, s.model_bytes): s.latency_s for s in profile.samples if (s.stage, s.gpus) == (stage, gpus)}
    if not cell:
        raise MissingProfileSliceError(stage, gpus)
    batches = sorted({b for b, _ in cell})
    models = sorted({m for _, m in cell})

    def locate(grid, x):
        i = min(max(bisect_right(grid, x) - 1, 0), len(grid) - 2)
        return i, (x - grid[i]) / (grid[i + 1] - grid[i])

    i, y0 = locate(batches, batch)
    j, y1 = locate(models, model_bytes)
    value = (
        0.0
        + cell[batches[i], models[j]] * (1 - y0) * (1 - y1)
        + cell[batches[i], models[j + 1]] * (1 - y0) * y1
        + cell[batches[i + 1], models[j]] * y0 * (1 - y1)
        + cell[batches[i + 1], models[j + 1]] * y0 * y1
    )
    inside = batches[0] <= batch <= batches[-1] and models[0] <= model_bytes <= models[-1]
    return float(value), not inside


class TestGeometryFit:
    def test_single_row_reduces_to_division(self):
        h, l, n = GEOMETRY_ROWS[0]
        geom = fit_geometry([(h, l, n)])
        np.testing.assert_allclose(geom.mu, h * l / n ** (2.0 / 3.0), rtol=1.0e-14)

    def test_three_rows_match_lstsq(self):
        geom = fit_geometry(GEOMETRY_ROWS)
        basis = np.array([[n ** (2.0 / 3.0)] for _, _, n in GEOMETRY_ROWS])
        target = np.array([h * l for h, l, _ in GEOMETRY_ROWS])
        mu_ref, *_ = np.linalg.lstsq(basis, target, rcond=None)
        assert geom.mu == float(mu_ref[0])
        # frozen so downstream oracles are stable
        assert geom.mu == 0.033849246460112156

    def test_hidden_layer_product(self):
        geom = GeometryFit(mu=2.0)
        np.testing.assert_allclose(
            geom.hidden_layer_product(1.0e9), 2.0 * 1.0e9 ** (2.0 / 3.0), rtol=1.0e-15
        )

    def test_kv_bytes_per_token(self, hw):
        geom = GeometryFit(mu=1.0)
        np.testing.assert_allclose(
            kv_cache_bytes_per_token(1.0e9, geom, hw),
            2.0 * 1.0e9 ** (2.0 / 3.0) * hw.dtype_bytes,
            rtol=1.0e-15,
        )

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            fit_geometry([])
        with pytest.raises(ValueError):
            fit_geometry([(768.0, 0.0, 1.0e8)])


class TestMaxBatchSize:
    def test_worked_example(self, hw):
        """One 40 GiB GPU, 1B dense params at 2 bytes, hidden*layers = 1e4."""
        geom = GeometryFit(mu=1.0e4 / 1.0e9 ** (2.0 / 3.0))
        got = max_batch_size(1.0e9, 1.0e9, 1, hw, geom)
        hl = geom.hidden_layer_product(1.0e9)
        expected = (40.0 * 2**30 - 1.0e9 * 2.0) / ((2 * 512 + 256) * (2.0 * hl * 2.0))
        np.testing.assert_allclose(got, expected, rtol=1.0e-12)
        np.testing.assert_allclose(got, 799.7983, rtol=1.0e-6)

    def test_zero_headroom_raises_with_gpu_hint(self):
        hw = HardwareConfig(gpu_mem_bytes=2.0**30)
        geom = GeometryFit(mu=0.05)
        n_total = 1.5 * 2.0**30 / 2.0  # weights = 1.5 GPUs' worth
        with pytest.raises(InsufficientMemoryError) as exc:
            max_batch_size(n_total, n_total, 1, hw, geom)
        assert exc.value.min_gpus == 2
        assert exc.value.required_bytes == n_total * 2.0

    def test_doubling_headroom_doubles_batch(self):
        geom = GeometryFit(mu=0.05)
        n_total = 1.0e9
        hw1 = HardwareConfig(gpu_mem_bytes=8.0e9)
        headroom = 8.0e9 - n_total * 2.0
        hw2 = HardwareConfig(gpu_mem_bytes=2.0 * headroom + n_total * 2.0)
        b1 = max_batch_size(n_total, n_total, 1, hw1, geom)
        b2 = max_batch_size(n_total, n_total, 1, hw2, geom)
        assert b2 == 2.0 * b1

    def test_monotonic_in_size_and_gpus(self, hw, geom):
        sizes = np.geomspace(1.0e8, 1.0e10, 20)
        batches = [max_batch_size(n, n, 4, hw, geom) for n in sizes]
        assert all(b2 < b1 for b1, b2 in zip(batches, batches[1:]))
        by_gpus = [max_batch_size(1.0e9, 1.0e9, g, hw, geom) for g in range(1, 9)]
        assert all(b2 > b1 for b1, b2 in zip(by_gpus, by_gpus[1:]))

    def test_kv_geometry_uses_dense_size_not_total(self, hw, geom):
        """An 8-expert model holds more weights but the same cache per token."""
        n_dense = 1.0e9
        n_total = total_params(n_dense, 8.0)
        b_moe = max_batch_size(n_total, n_dense, 8, hw, geom)
        b_dense = max_batch_size(n_dense, n_dense, 8, hw, geom)
        kv = kv_cache_bytes_per_token(n_dense, geom, hw)
        tokens = 2 * hw.prompt_len + hw.output_len
        np.testing.assert_allclose(
            b_dense - b_moe, (n_total - n_dense) * hw.dtype_bytes / (tokens * kv), rtol=1.0e-9
        )


class TestLatencyProfile:
    @pytest.fixture()
    def affine(self):
        """Hand-rolled affine surface 0.01 + 1e-5*b + 1e-12*m on a 3x3 grid."""
        samples = []
        for stage in ("prompt", "decode"):
            for b in (1.0, 100.0, 1000.0):
                for m in (1.0e8, 1.0e9, 1.0e10):
                    samples.append(
                        LatencySample(stage, m, 2, b, 0.01 + 1.0e-5 * b + 1.0e-12 * m)
                    )
        return LatencyProfile(samples)

    def test_reproduces_samples_exactly(self, affine):
        val, extrapolated = affine.interpolate("decode", 1.0e9, 2, 100.0)
        assert val == 0.01 + 1.0e-5 * 100.0 + 1.0e-12 * 1.0e9
        assert not extrapolated

    def test_bilinear_matches_affine_off_grid(self, affine):
        val, extrapolated = affine.interpolate("prompt", 3.7e9, 2, 417.0)
        np.testing.assert_allclose(
            val, 0.01 + 1.0e-5 * 417.0 + 1.0e-12 * 3.7e9, rtol=1.0e-12
        )
        assert not extrapolated

    def test_cell_midpoint_is_corner_mean(self, affine):
        corners = [
            affine.interpolate("decode", m, 2, b)[0]
            for m in (1.0e8, 1.0e9)
            for b in (1.0, 100.0)
        ]
        mid, _ = affine.interpolate("decode", (1.0e8 + 1.0e9) / 2, 2, 50.5)
        np.testing.assert_allclose(mid, np.mean(corners), rtol=1.0e-12)

    def test_extrapolation_is_flagged_and_linear(self, affine):
        val, extrapolated = affine.interpolate("decode", 1.0e9, 2, 4000.0)
        assert extrapolated
        np.testing.assert_allclose(
            val, 0.01 + 1.0e-5 * 4000.0 + 1.0e-12 * 1.0e9, rtol=1.0e-12
        )
        _, inside = affine.interpolate("decode", 1.0e9, 2, 999.0)
        assert not inside

    def test_missing_slice_raises(self, affine):
        with pytest.raises(MissingProfileSliceError) as exc:
            affine.interpolate("decode", 1.0e9, 5, 100.0)
        assert exc.value.gpus == 5

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_query_rejected(self, affine, bad):
        with pytest.raises(ValueError, match="batch must be positive and finite"):
            affine.interpolate("decode", 1.0e9, 2, bad)
        with pytest.raises(ValueError, match="model_bytes must be positive and finite"):
            affine.interpolate("decode", bad, 2, 100.0)

    def test_one_stage_slice(self, affine):
        """A prompt slice with no decode slice at its GPU count: the prompt
        lookup reads its own row, not the stand-in for the missing one."""
        extra = [LatencySample("prompt", m, 3, b, 0.02 + 3.0e-5 * b + 2.0e-12 * m)
                 for b in (4.0, 64.0, 900.0) for m in (5.0e8, 2.0e10)]
        prof = LatencyProfile(affine.samples + tuple(extra))
        for b, m in [(4.0, 5.0e8), (37.0, 3.1e9), (900.0, 2.0e10), (1.5, 1.0e8), (5000.0, 1.0e11)]:
            got = prof.interpolate("prompt", m, 3, b)
            want = scalar_interpolate(prof, "prompt", m, 3, b)
            assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1])
        with pytest.raises(MissingProfileSliceError) as exc:
            prof.interpolate("decode", 1.0e9, 3, 64.0)
        assert (exc.value.stage, exc.value.gpus) == ("decode", 3)

    def test_non_rectangular_grid_rejected(self):
        samples = [
            LatencySample("decode", 1.0e8, 1, 1.0, 0.01),
            LatencySample("decode", 1.0e9, 1, 1.0, 0.02),
            LatencySample("decode", 1.0e8, 1, 64.0, 0.03),
        ]
        with pytest.raises(ValueError, match="grid"):
            LatencyProfile(samples)

    def test_duplicate_sample_rejected(self):
        s = LatencySample("decode", 1.0e8, 1, 1.0, 0.01)
        with pytest.raises(ValueError, match="duplicate"):
            LatencyProfile([s, s])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            LatencySample("prefill", 1.0e8, 1, 1.0, 0.01)

    def test_json_round_trip(self, affine):
        back = LatencyProfile.from_json(affine.to_json())
        assert back.samples == affine.samples

    def test_json_rejects_unknown_and_missing_keys(self):
        row = {"stage": "decode", "model_bytes": 1e8, "gpus": 1, "batch": 1.0, "latency_s": 0.01}
        bad_extra = [dict(row, typo=1), dict(row, model_bytes=1e9)]
        with pytest.raises(ValueError, match="typo"):
            LatencyProfile.from_json(json.dumps(bad_extra))
        missing = {k: v for k, v in row.items() if k != "latency_s"}
        with pytest.raises(ValueError, match="latency_s"):
            LatencyProfile.from_json(json.dumps([missing, missing]))


def measured_style_profile(seed=3):
    """Concave-in-batch latencies on batches 64/512/4096, some GPU counts missing."""
    rng = np.random.default_rng(seed)
    samples = []
    for stage, scale in (("prompt", 4.0e-4), ("decode", 1.0e-4)):
        for g in (1, 3, 4, 8):
            for b in (64.0, 512.0, 4096.0):
                for m in (2.0e8, 3.0e9, 4.0e10, 1.5e11):
                    jitter = float(rng.uniform(0.9, 1.1))
                    lat = (0.001 + scale * b**0.6 * (m / 1.0e9) ** 0.3 / g) * jitter
                    samples.append(LatencySample(stage, m, g, b, lat))
    return LatencyProfile(samples)


class TestInterpolateMatchesScipy:
    """The lookup is scipy's linear RegularGridInterpolator, bit for bit."""

    @staticmethod
    def check_slice(prof, stage, gpus, batch, model_bytes):
        from scipy.interpolate import RegularGridInterpolator

        rows = [s for s in prof.samples if (s.stage, s.gpus) == (stage, gpus)]
        cell = {(s.batch, s.model_bytes): s.latency_s for s in rows}
        batches = np.array(sorted({b for b, _ in cell}))
        models = np.array(sorted({m for _, m in cell}))
        values = np.array([[cell[(b, m)] for m in models] for b in batches])
        oracle = RegularGridInterpolator(
            (batches, models), values, method="linear", bounds_error=False, fill_value=None
        )
        want = oracle(np.column_stack([batch, model_bytes]))
        got = [prof.interpolate(stage, m, gpus, b) for b, m in zip(batch, model_bytes)]
        np.testing.assert_array_equal(
            np.array([v for v, _ in got]).view(np.uint64), want.view(np.uint64)
        )
        hull = (
            (batch < batches[0]) | (batch > batches[-1])
            | (model_bytes < models[0]) | (model_bytes > models[-1])
        )
        np.testing.assert_array_equal([flag for _, flag in got], hull)

    @staticmethod
    def queries(prof, stage, gpus, rng, n):
        """Every node, each upper edge against off-grid points, and n seeded
        log-uniform points from 20x below to 20x above the hull."""
        rows = [s for s in prof.samples if (s.stage, s.gpus) == (stage, gpus)]
        batches = sorted({s.batch for s in rows})
        models = sorted({s.model_bytes for s in rows})
        nodes = [(b, m) for b in batches for m in models]
        off_b = np.exp(rng.uniform(np.log(batches[0]), np.log(batches[-1]), 8))
        off_m = np.exp(rng.uniform(np.log(models[0]), np.log(models[-1]), 8))
        edges = [(batches[-1], m) for m in off_m] + [(b, models[-1]) for b in off_b]
        wide_b = np.exp(rng.uniform(np.log(batches[0] / 20), np.log(batches[-1] * 20), n))
        wide_m = np.exp(rng.uniform(np.log(models[0] / 20), np.log(models[-1] * 20), n))
        points = np.array(nodes + edges + list(zip(wide_b, wide_m)))
        return points[:, 0], points[:, 1]

    @pytest.mark.parametrize("which", ["affine", "measured"])
    def test_bitwise_equal_to_regular_grid_interpolator(self, which, profile):
        prof = profile if which == "affine" else measured_style_profile()
        rng = np.random.default_rng(17)
        slices = prof.slices()
        for stage, gpus in slices:
            batch, model_bytes = self.queries(prof, stage, gpus, rng, 4000 // len(slices))
            self.check_slice(prof, stage, gpus, batch, model_bytes)


class TestThroughput:
    def test_constant_latency_halves_the_batch_rate(self):
        """1 s per prompt and per decode iteration: T = b / 2."""
        profile = constant_profile({1: 1.0})
        rate = throughput_for_batch(500.0, 1.0e9, 1, HardwareConfig(), profile)
        np.testing.assert_allclose(rate, 250.0, rtol=1.0e-14)

    def test_zero_batch_is_zero_rate(self):
        """Less than one whole request serves nothing, as in serve_simulate."""
        profile = constant_profile({1: 1.0})
        assert throughput_for_batch(0.0, 1.0e9, 1, HardwareConfig(), profile) == 0.0
        assert throughput_for_batch(0.999, 1.0e9, 1, HardwareConfig(), profile) == 0.0
        assert throughput_for_batch(1.0, 1.0e9, 1, HardwareConfig(), profile) == 0.5

    def test_more_gpus_strictly_faster(self, hw, geom, profile):
        rates = [throughput(1.0e9, 8.0, g, hw, geom, profile) for g in range(1, 9)]
        assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:]))

    def test_prompt_rides_at_reduced_batch(self, hw):
        """Prompt latency is charged at batch/output_len, not full batch."""
        samples = []
        for stage, c1 in (("prompt", 1.0e-3), ("decode", 1.0e-4)):
            for b in (1.0, 4096.0):
                for m in (1.0e8, 1.0e12):
                    samples.append(LatencySample(stage, m, 1, b, 0.01 + c1 * b))
        profile = LatencyProfile(samples)
        b = 512.0
        expected = b / (
            (0.01 + 1.0e-3 * (b / hw.output_len)) + (0.01 + 1.0e-4 * b)
        )
        got = throughput_for_batch(b, 1.0e9, 1, hw, profile)
        np.testing.assert_allclose(got, expected, rtol=1.0e-12)


class TestCostPerToken:
    def test_composes_from_first_principles(self, hw):
        geom = GeometryFit(mu=1.0e4 / 1.0e9 ** (2.0 / 3.0))
        price = HardwareConfig(cost_per_gpu_second=1.0e-3)
        profile = constant_profile({1: 1.0})
        got = cost_per_token(1.0e9, 1.0, 1, price, geom, profile)
        b = max_batch_size(1.0e9, 1.0e9, 1, price, geom)
        np.testing.assert_allclose(got, 2.0 * 1.0 * 1.0e-3 / b, rtol=1.0e-14)
        np.testing.assert_allclose(got, 2.5006e-6, rtol=1.0e-4)

    def test_linear_in_gpu_price(self, geom, profile):
        base = HardwareConfig(cost_per_gpu_second=1.0)
        triple = HardwareConfig(cost_per_gpu_second=3.0)
        c1 = cost_per_token(1.0e9, 8.0, 4, base, geom, profile)
        c3 = cost_per_token(1.0e9, 8.0, 4, triple, geom, profile)
        np.testing.assert_allclose(c3, 3.0 * c1, rtol=1.0e-15)


class TestMinCostOverGpus:
    def test_single_gpu_window_equals_direct_cost(self, geom, profile):
        hw = HardwareConfig(max_gpus=1)
        choice = min_cost_over_gpus(5.0e8, 8.0, hw, geom, profile)
        assert choice.gpus == 1
        assert choice.cost_per_token == cost_per_token(5.0e8, 8.0, 1, hw, geom, profile)

    def test_wider_window_never_costs_more(self, geom, profile):
        costs = []
        for g in range(1, 9):
            hw = HardwareConfig(max_gpus=g)
            costs.append(min_cost_over_gpus(2.0e9, 8.0, hw, geom, profile).cost_per_token)
        assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))

    def test_exact_cost_tie_prefers_fewer_gpus(self):
        """Latencies tuned so 1 and 2 GPUs cost identically, bit for bit.

        Per-stage latency b/4 on one GPU gives T = b/(b/4 + b/4) = 2
        exactly (b/4 and b/2 are exponent shifts, and x/(x/2) rounds to
        exactly 2); b/8 per stage on two GPUs gives T = 4; cost g/T is
        then 0.5 both ways. Every interpolation query is placed on a grid
        node so the profile lookup adds no rounding of its own.
        """
        hw = HardwareConfig(
            gpu_mem_bytes=2.0**35,
            max_gpus=2,
            cost_per_gpu_second=1.0,
            prompt_len=384,
            output_len=256,
        )
        geom = GeometryFit(mu=2.0**-9)  # b comes out near 512, b/256 near 2
        n = 2.0**33
        b1 = max_batch_size(n, n, 1, hw, geom)
        b2 = max_batch_size(n, n, 2, hw, geom)
        assert b1 / 256.0 >= 1.0
        model_grid = (n * hw.dtype_bytes, 2.0**36)
        samples = []
        for g, b, lat in ((1, b1, b1 / 4.0), (2, b2, b2 / 8.0)):
            for stage, query_batch in (("prompt", b / 256.0), ("decode", b)):
                for qb in (query_batch, 8192.0):
                    for m in model_grid:
                        samples.append(LatencySample(stage, m, g, qb, lat))
        profile = LatencyProfile(samples)
        c1 = cost_per_token(n, 1.0, 1, hw, geom, profile)
        c2 = cost_per_token(n, 1.0, 2, hw, geom, profile)
        assert c1 == c2 == 0.5
        assert min_cost_over_gpus(n, 1.0, hw, geom, profile).gpus == 1

    def test_infeasible_counts_skipped(self, geom, profile):
        """Weights needing 3+ GPUs leave rows 1-2 infeasible but chosen row valid."""
        hw = HardwareConfig(max_gpus=8)
        n_dense = 9.0e9  # 8 experts: ~3.3e10 total params, 66 GB of weights
        rows = cost_table(n_dense, 8.0, hw, geom, profile)
        assert [r["feasible"] for r in rows[:1]] == [False]
        choice = min_cost_over_gpus(n_dense, 8.0, hw, geom, profile)
        assert choice.gpus >= 2
        feasible = [r for r in rows if r["feasible"]]
        assert choice.cost_per_token == min(r["cost_per_token"] for r in feasible)

    def test_nothing_fits_raises(self, geom, profile):
        hw = HardwareConfig(max_gpus=2)
        with pytest.raises(NoFeasibleGpuError) as exc:
            min_cost_over_gpus(1.0e11, 8.0, hw, geom, profile)
        assert exc.value.max_gpus == 2
        assert exc.value.notes == ()
        assert str(exc.value) == (
            "model too large for hardware: needs 6.667e+11 bytes of weight memory, no feasible GPU count up to 2"
        )

    def test_unservable_counts_that_fit_are_named(self, geom):
        """Weights fit on two GPUs with room for only a sliver of a request,
        and three GPUs have no profile slice: the error says so instead of
        blaming memory."""
        hw = HardwareConfig(max_gpus=3)
        n = (2.0 * hw.gpu_mem_bytes - 10.0) / hw.dtype_bytes
        with pytest.raises(NoFeasibleGpuError) as exc:
            min_cost_over_gpus(n, 1.0, hw, geom, constant_profile({1: 1.0, 2: 1.0}))
        assert exc.value.notes == ("zero throughput", "no profile slice at this gpu count")
        assert str(exc.value) == (
            "no servable GPU count up to 3: every count that fits the 8.590e+10 bytes of weights "
            "is unservable (zero throughput; no profile slice at this gpu count)"
        )

    def test_cost_table_keeps_every_count(self, geom, profile, hw):
        rows = cost_table(1.0e9, 8.0, hw, geom, profile)
        assert [r["gpus"] for r in rows] == list(range(1, 9))
        assert all(set(r) >= {"gpus", "feasible", "batch", "throughput", "cost_per_token"} for r in rows)

    def test_cost_table_sizes_the_model_once(self, geom, profile, hw, monkeypatch):
        import moescale.inference as inference

        calls = []
        public = inference.total_params
        monkeypatch.setattr(inference, "total_params", lambda *args: calls.append(args) or public(*args))
        cost_table(1.0e9, 8.0, hw, geom, profile)
        assert len(calls) == 1


class TestHardwareConfig:
    def test_defaults(self, hw):
        assert hw.gpu_mem_bytes == 40.0 * 2**30
        assert hw.max_gpus == 8
        assert hw.prompt_len == 512
        assert hw.output_len == 256
        assert hw.dtype_bytes == 2.0

    def test_from_dict_fills_missing_with_defaults(self):
        cfg = HardwareConfig.from_dict({"max_gpus": 4})
        assert cfg.max_gpus == 4
        assert cfg.gpu_mem_bytes == 40.0 * 2**30

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="gpu_count"):
            HardwareConfig.from_dict({"gpu_count": 4})

    def test_from_dict_rejects_fractional_integers(self):
        with pytest.raises(ValueError, match="max_gpus"):
            HardwareConfig.from_dict({"max_gpus": 2.5})

    def test_json_round_trip(self, hw):
        assert HardwareConfig.from_json(hw.to_json()) == hw


class TestUnservable:
    def test_zero_throughput_raises(self, geom):
        """A profile can only return positive latencies, so force batch -> 0
        via memory so tight the batch rounds to a sliver."""
        hw = HardwareConfig(gpu_mem_bytes=1.0e9, max_gpus=1)
        profile = constant_profile({1: 1.0})
        # weights fit with a few bytes to spare; a batch of ~1e-9 requests
        # serves nothing, as serve_simulate's zero slots do.
        n = (1.0e9 - 10.0) / 2.0
        with pytest.raises(UnservableError, match="zero throughput at gpus=1"):
            cost_per_token(n, 1.0, 1, hw, geom, profile)
        assert throughput(n, 1.0, 1, hw, geom, profile) == 0.0
        with pytest.raises((UnservableError, InsufficientMemoryError)):
            cost_per_token(1.0e9, 1.0, 1, hw, geom, profile)


def reference_cell(n_dense, experts, g, hw, geom, profile):
    """One (size, GPU count) cell priced by the scalar chain: the public
    batch sizing and the reference lookup, one stage and one check at a
    time."""
    n_total = total_params(n_dense, experts)
    try:
        batch = max_batch_size(n_total, n_dense, g, hw, geom)
    except InsufficientMemoryError as exc:
        return {"status": NO_MEMORY, "note": f"weights do not fit; needs >= {exc.min_gpus} gpus"}
    if batch < 1:
        return {"status": ZERO_THROUGHPUT, "batch": batch, "note": "zero throughput"}
    model_bytes = n_total * hw.dtype_bytes
    try:
        lat_prompt, out_prompt = scalar_interpolate(profile, "prompt", model_bytes, g, batch / hw.output_len)
        lat_decode, out_decode = scalar_interpolate(profile, "decode", model_bytes, g, batch)
    except MissingProfileSliceError:
        return {"status": NO_SLICE, "batch": batch, "note": "no profile slice at this gpu count"}
    total = lat_prompt + lat_decode
    if total <= 0:
        return {"status": NONPOSITIVE_LATENCY, "batch": batch, "note": "interpolated latency is nonpositive"}
    rate = batch / total
    cell = {"batch": batch, "throughput": rate, "extrapolated": out_prompt or out_decode}
    if rate <= 0:
        return cell | {"status": ZERO_THROUGHPUT, "note": "zero throughput"}
    return cell | {"status": SERVABLE, "cost_per_token": g * hw.cost_per_gpu_second / rate, "note": ""}


def _bits(x):
    return float(x).hex()


@st.composite
def serving_setups(draw):
    """A random profile (some slices missing, each slice on its own grid),
    hardware, sizes and an expert count. Latency is affine, concave, or
    steeper than linear in batch; a steep one extrapolates below its
    smallest batch to a nonpositive latency, as measured profiles can."""
    max_gpus = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["affine", "concave", "steep"]))
    c = draw(st.tuples(*[st.floats(0.1, 10.0)] * 3))
    power = draw(st.floats(0.3, 0.9)) if shape == "concave" else draw(st.floats(1.1, 2.0))
    batch_points = st.lists(st.sampled_from([1.0, 8.0, 64.0, 200.0, 512.0, 1500.0, 4096.0]),
                            min_size=2, max_size=4, unique=True)
    model_points = st.lists(st.sampled_from([1e8, 5e8, 2e9, 1e10, 4e10, 1e11, 1e12]),
                            min_size=2, max_size=4, unique=True)
    samples = []
    for stage, scale in (("prompt", 1.0), ("decode", 0.3)):
        for g in range(1, max_gpus + 2):
            if not draw(st.booleans()) and draw(st.booleans()):
                continue  # about a quarter of the slices are missing
            slice_models = draw(model_points)
            for b in draw(batch_points):
                for m in slice_models:
                    if shape == "concave":
                        lat = scale * c[0] * 1e-4 * b**power * (m / 1e9) ** 0.3 / g
                    elif shape == "steep":
                        lat = scale * (1e-5 + c[1] * 1e-4 * (b / 64.0) ** power) * (m / 1e9) ** 0.3 / g
                    else:
                        lat = scale * (c[0] * 1e-3 + c[1] * 1e-6 * b + c[2] * 1e-13 * m) / g
                    samples.append(LatencySample(stage, m, g, b, lat))
    if not samples:
        samples = [LatencySample("decode", m, 1, b, 0.01) for b in (1.0, 2.0) for m in (1e8, 1e9)]
    hw = HardwareConfig(
        gpu_mem_bytes=draw(st.sampled_from([4.0 * 2**30, 16.0 * 2**30, 40.0 * 2**30])),
        max_gpus=max_gpus,
        cost_per_gpu_second=draw(st.floats(0.1, 10.0)),
        output_len=draw(st.sampled_from([1, 64, 256, 1024])),
    )
    n_dense = draw(st.lists(st.floats(1e6, 3e10), min_size=1, max_size=6))
    n_dense += draw(st.lists(st.sampled_from(POWER_DIFFERS or [1e9]), max_size=3))
    experts = draw(st.sampled_from([1.0, 2.5, 8.0, 32.0]))
    return LatencyProfile(samples), hw, n_dense, experts


def measured_style_profile(gpus=range(1, 9), jitter=(1.0,) * 6) -> LatencyProfile:
    """Latency concave in batch on three batches from 64 up, rising with
    model size, as measured profiles are. The prompt stage, queried at
    batch / output_len, extrapolates below 64 to a nonpositive latency for
    the larger models."""
    samples = []
    bases = (("prompt", (0.001, 0.05, 0.4)), ("decode", (0.0008, 0.02, 0.15)))
    for s, (stage, base) in enumerate(bases):
        for g in gpus:
            for i, (b, lat) in enumerate(zip((64.0, 512.0, 4096.0), base)):
                for m in (1.0e8, 1.0e9, 1.0e10, 1.0e11):
                    lat_mg = lat * jitter[3 * s + i] * (0.5 + 0.5 * m / 1.0e9) ** 0.5 / g**0.9
                    samples.append(LatencySample(stage, m, g, b, lat_mg))
    return LatencyProfile(samples)


@st.composite
def measured_setups(draw):
    """A jittered measured-style profile with some GPU counts missing,
    hardware, sizes and an expert count, shaped like serving_setups."""
    max_gpus = draw(st.integers(1, 8))
    gpus = [1] + [g for g in range(2, max_gpus + 1) if draw(st.booleans())]
    jitter = draw(st.tuples(*[st.floats(0.8, 1.2)] * 6))
    hw = HardwareConfig(max_gpus=max_gpus, output_len=draw(st.sampled_from([64, 256, 1024])))
    n_dense = draw(st.lists(st.floats(1e7, 1e11), min_size=1, max_size=6))
    experts = draw(st.sampled_from([1.0, 4.0, 8.0, 32.0]))
    return measured_style_profile(gpus, jitter), hw, n_dense, experts


# Sizes where numpy's array power and Python's ** disagree in the last ulp;
# a kernel that took np.power for the KV term would misprice them.
_CANDIDATES = np.geomspace(1e6, 3e11, 4001)
_PYTHON_POWER = np.array([n ** (2.0 / 3.0) for n in _CANDIDATES.tolist()])
POWER_DIFFERS = _CANDIDATES[np.power(_CANDIDATES, 2.0 / 3.0) != _PYTHON_POWER]
POWER_DIFFERS = POWER_DIFFERS[:: max(1, len(POWER_DIFFERS) // 16)].tolist()


class TestCostGrid:
    """The array kernel is the scalar chain, cell for cell and bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(serving_setups())
    def test_cells_equal_the_scalar_chain(self, setup):
        profile, hw, n_dense, experts = setup
        geom = fit_geometry(GEOMETRY_ROWS)
        grid = cost_grid(n_dense, experts, hw, geom, profile)
        assert grid.gpus == tuple(range(1, hw.max_gpus + 1))
        for s, n in enumerate(n_dense):
            for k, g in enumerate(grid.gpus):
                want = reference_cell(n, experts, g, hw, geom, profile)
                assert grid.status[s, k] == want["status"]
                if "batch" in want:
                    assert _bits(grid.batch[s, k]) == _bits(want["batch"])
                if "throughput" in want:
                    assert _bits(grid.throughput[s, k]) == _bits(want["throughput"])
                    assert bool(grid.extrapolated[s, k]) == want["extrapolated"]
                if "cost_per_token" in want:
                    assert _bits(grid.cost_per_token[s, k]) == _bits(want["cost_per_token"])

    @settings(max_examples=100, deadline=None)
    @given(serving_setups(), st.integers(0, 2**32 - 1))
    def test_interpolate_equals_the_scalar_lookup(self, setup, seed):
        """The one-cell view of the lookup is the reference lookup, bit for
        bit and flag for flag, on every node and at points inside and up to
        20x outside each slice's hull."""
        profile = setup[0]
        rng = np.random.default_rng(seed)
        for stage, gpus in profile.slices():
            batch, model_bytes = TestInterpolateMatchesScipy.queries(profile, stage, gpus, rng, 8)
            for b, m in zip(batch.tolist(), model_bytes.tolist()):
                got = profile.interpolate(stage, m, gpus, b)
                want = scalar_interpolate(profile, stage, m, gpus, b)
                assert (_bits(got[0]), got[1]) == (_bits(want[0]), want[1])

    @settings(max_examples=150, deadline=None)
    @given(serving_setups())
    def test_table_and_cheapest_equal_the_scalar_chain(self, setup):
        profile, hw, n_dense, experts = setup
        geom = fit_geometry(GEOMETRY_ROWS)
        for n in n_dense:
            cells = [reference_cell(n, experts, g, hw, geom, profile) for g in range(1, hw.max_gpus + 1)]
            rows = cost_table(n, experts, hw, geom, profile)
            for g, (row, cell) in enumerate(zip(rows, cells), start=1):
                servable = cell["status"] == SERVABLE
                assert row["gpus"] == g
                assert row["feasible"] == servable
                assert row["note"] == cell["note"]
                assert row["extrapolated"] == (servable and cell["extrapolated"])
                for key in ("batch", "throughput", "cost_per_token"):
                    assert _bits(row[key]) == _bits(cell[key] if servable else math.nan)
            servable = [
                (c["cost_per_token"], g) for g, c in enumerate(cells, start=1) if c["status"] == SERVABLE
            ]
            if not servable:
                with pytest.raises(NoFeasibleGpuError) as exc:
                    min_cost_over_gpus(n, experts, hw, geom, profile)
                notes = dict.fromkeys(c["note"] for c in cells if c["status"] != NO_MEMORY)
                assert exc.value.notes == tuple(notes)
                continue
            choice = min_cost_over_gpus(n, experts, hw, geom, profile)
            assert (choice.cost_per_token, choice.gpus) == min(servable)

    def test_one_cell_views_raise_from_the_status(self, hw, geom):
        """throughput/cost_per_token read one cell and raise what the chain raised."""
        profile = constant_profile({1: 1.0, 3: 1.0})
        grid = cost_grid([1.0e9], 1.0, hw, geom, profile)
        assert throughput(1.0e9, 1.0, 3, hw, geom, profile) == grid.throughput[0, 2]
        with pytest.raises(MissingProfileSliceError) as exc:
            throughput(1.0e9, 1.0, 2, hw, geom, profile)
        assert (exc.value.stage, exc.value.gpus) == ("prompt", 2)
        with pytest.raises(InsufficientMemoryError) as exc:
            cost_per_token(1.0e11, 1.0, 1, hw, geom, profile)
        assert exc.value.min_gpus == 5
        with pytest.raises(ValueError, match="gpus must be >= 1"):
            throughput(1.0e9, 1.0, 0, hw, geom, profile)

    @settings(max_examples=40, deadline=None)
    @given(measured_setups())
    def test_nonpositive_latency_is_unservable(self, setup):
        """A cell whose latency extrapolates to nonpositive is a noted,
        infeasible row of the table, and the one-cell views raise a typed
        error naming its GPU count."""
        profile, hw, n_dense, experts = setup
        geom = fit_geometry(GEOMETRY_ROWS)
        grid = cost_grid(n_dense, experts, hw, geom, profile)
        for s, k in zip(*np.nonzero(grid.status == NONPOSITIVE_LATENCY)):
            g = grid.gpus[k]
            row = cost_table(n_dense[s], experts, hw, geom, profile)[k]
            assert (row["feasible"], row["note"]) == (False, "interpolated latency is nonpositive")
            for view in (throughput, cost_per_token):
                with pytest.raises(UnservableError) as exc:
                    view(n_dense[s], experts, g, hw, geom, profile)
                assert str(exc.value) == f"interpolated latency is nonpositive at gpus={g}"
            with pytest.raises(UnservableError):
                throughput_for_batch(grid.batch[s, k], grid.weight_bytes[s], g, hw, profile)

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_queries_on_the_hull_edge_are_inside(self, edge, geom):
        """Both stages queried exactly on a grid's edge node: priced, not flagged."""
        hw = HardwareConfig(max_gpus=1, output_len=16)
        n = 1.0e9
        batch = max_batch_size(n, n, 1, hw, geom)
        m = n * hw.dtype_bytes
        samples = []
        for stage, b in (("prompt", batch / hw.output_len), ("decode", batch)):
            for bb in ((b, 2.0 * b) if edge == "lower" else (b / 2.0, b)):
                for mm in ((m, 2.0 * m) if edge == "lower" else (m / 2.0, m)):
                    samples.append(LatencySample(stage, mm, 1, bb, 0.01 + 1.0e-5 * bb))
        grid = cost_grid([n], 1.0, hw, geom, LatencyProfile(samples))
        assert grid.status[0, 0] == SERVABLE
        assert not grid.extrapolated[0, 0]
        assert grid.throughput[0, 0] == throughput_for_batch(batch, m, 1, hw, LatencyProfile(samples))

    def test_profile_tensor_is_built_once(self, hw, geom, profile):
        fresh = LatencyProfile(profile.samples)
        assert not fresh._tensors
        cost_table(1.0e9, 8.0, hw, geom, fresh)
        built = dict(fresh._tensors)
        assert len(built) == 1
        cost_grid([1.0e9, 2.0e9], 8.0, hw, geom, fresh)
        assert fresh._tensors == built
        assert all(fresh._tensors[key] is tensor for key, tensor in built.items())
