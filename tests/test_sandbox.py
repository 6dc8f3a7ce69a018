import json
import math
from pathlib import Path

import numpy as np
import pytest

from latentblendkit import (
    GUIDANCE_GRID,
    ChannelStats,
    DdimScheduleConfig,
    FeatureMap,
    InputError,
    LatentVector,
    Matrix,
    RescaleParams,
    SandboxConfig,
    build_schedule,
    run_sandbox,
)

GOLDEN = Path(__file__).parent / "golden"


def brute_force_alpha_cumprod(beta_start, beta_end, steps):
    """Independent pure-python reconstruction of the cumulative product."""
    if steps == 1:
        betas = [beta_start]
    else:
        s0, s1 = math.sqrt(beta_start), math.sqrt(beta_end)
        betas = [(s0 + (t / (steps - 1)) * (s1 - s0)) ** 2 for t in range(steps)]
        betas[0], betas[-1] = beta_start, beta_end
    out = []
    prod = 1.0
    for b in betas:
        prod *= 1.0 - b
        out.append(prod)
    return out


class TestBuildSchedule:
    def test_default_endpoints_exact(self):
        sched = build_schedule(DdimScheduleConfig())
        assert sched.betas[0] == 0.00085
        assert sched.betas[49] == 0.012
        assert sched.steps == 50

    def test_single_step(self):
        sched = build_schedule(DdimScheduleConfig(steps=1))
        np.testing.assert_array_equal(sched.betas, [0.00085])

    def test_endpoints_bitmatch_random_configs(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            b0 = float(rng.uniform(1e-5, 0.01))
            b1 = float(rng.uniform(b0 * 1.5, 0.5))
            steps = int(rng.integers(2, 200))
            which = "scaled_linear" if rng.integers(2) else "linear"
            sched = build_schedule(
                DdimScheduleConfig(beta_start=b0, beta_end=b1, beta_schedule=which, steps=steps)
            )
            assert sched.betas[0] == b0
            assert sched.betas[-1] == b1

    def test_alpha_cumprod_strictly_decreasing_in_unit_interval(self):
        sched = build_schedule(DdimScheduleConfig())
        acp = sched.alpha_cumprod
        assert ((acp > 0) & (acp < 1)).all()
        assert (np.diff(acp) < 0).all()

    def test_alpha_cumprod_matches_bruteforce(self):
        sched = build_schedule(DdimScheduleConfig())
        oracle = brute_force_alpha_cumprod(0.00085, 0.012, 50)
        assert abs(sched.alpha_cumprod[49] - oracle[49]) <= 1e-15 * abs(oracle[49])
        np.testing.assert_allclose(sched.alpha_cumprod, oracle, rtol=1e-14)

    def test_linear_schedule(self):
        sched = build_schedule(DdimScheduleConfig(beta_schedule="linear", steps=3))
        np.testing.assert_allclose(sched.betas, [0.00085, (0.00085 + 0.012) / 2, 0.012])

    def test_config_validation(self):
        with pytest.raises(InputError):
            DdimScheduleConfig(beta_start=0.2, beta_end=0.1)
        with pytest.raises(InputError):
            DdimScheduleConfig(steps=0)
        with pytest.raises(InputError):
            DdimScheduleConfig(beta_schedule="cosine")


class TestRunSandbox:
    def test_bit_reproducible(self):
        cfg = SandboxConfig()
        a = run_sandbox(cfg)
        b = run_sandbox(cfg)
        assert a.per_step_stat_distance == b.per_step_stat_distance
        assert a.final_ref_mass == b.final_ref_mass
        assert a.initial_stat_distance == b.initial_stat_distance

    def test_seed_changes_result(self):
        a = run_sandbox(SandboxConfig(seed=7))
        b = run_sandbox(SandboxConfig(seed=8))
        assert a.final_stat_distance != b.final_stat_distance

    def test_two_image_run_converges_monotonically(self):
        report = run_sandbox(SandboxConfig(n_images=2, guidance_scale=10.0, seed=7))
        ds = (report.initial_stat_distance,) + report.per_step_stat_distance
        assert report.final_stat_distance < report.initial_stat_distance
        # non-increasing after the first few steps; this configuration is
        # strictly decreasing from the start
        for i in range(5, len(ds) - 1):
            assert ds[i + 1] <= ds[i]

    def test_default_convergence_ratio(self):
        report = run_sandbox(SandboxConfig())
        assert report.final_stat_distance < 0.5 * report.initial_stat_distance

    def test_near_zero_sigma_blocks_convergence(self):
        base = run_sandbox(SandboxConfig(seed=7))
        blocked = run_sandbox(SandboxConfig(seed=7, rescale=RescaleParams(mu=0.0, sigma=1e-6)))
        assert blocked.final_stat_distance > base.final_stat_distance
        assert blocked.final_ref_mass < 1e-6  # essentially self-only attention

    def test_guidance_pair(self):
        lo = run_sandbox(SandboxConfig(guidance_scale=5.0, seed=7))
        hi = run_sandbox(SandboxConfig(guidance_scale=30.0, seed=7))
        assert hi.final_stat_distance <= lo.final_stat_distance

    def test_guidance_sweep_monotone_and_golden(self):
        golden = json.loads((GOLDEN / "sandbox_guidance_sweep.json").read_text())
        finals = [
            run_sandbox(SandboxConfig(guidance_scale=g, seed=7)).final_stat_distance
            for g in GUIDANCE_GRID
        ]
        for a, b in zip(finals, finals[1:]):
            assert b <= a
        for g, final in zip(GUIDANCE_GRID, finals):
            assert final == pytest.approx(golden[str(int(g))], rel=1e-12)

    def test_golden_regression(self):
        golden = json.loads((GOLDEN / "sandbox_default.json").read_text())
        report = run_sandbox(SandboxConfig())
        assert report.initial_stat_distance == pytest.approx(golden["initial_stat_distance"], rel=1e-12)
        assert report.final_stat_distance == pytest.approx(golden["final_stat_distance"], rel=1e-12)
        assert report.final_ref_mass == pytest.approx(golden["final_ref_mass"], rel=1e-12)
        np.testing.assert_allclose(
            report.per_step_stat_distance, golden["per_step_stat_distance"], rtol=1e-12
        )

    def test_alt_golden_exact(self):
        # a second shape, a linear schedule and a damped reference block;
        # compared with ==, since layout-dependent summation drifts only at
        # some shapes
        golden = json.loads((GOLDEN / "sandbox_alt.json").read_text())
        c = golden["config"]
        report = run_sandbox(
            SandboxConfig(
                guidance_scale=c["guidance_scale"],
                seed=c["seed"],
                n_images=c["n_images"],
                feature_shape=tuple(c["feature_shape"]),
                schedule=DdimScheduleConfig(**c["schedule"]),
                rescale=RescaleParams(**c["rescale"]),
            )
        )
        assert report.to_dict() == {k: v for k, v in golden.items() if k != "config"}

    def test_no_value_objects_built_per_step(self, monkeypatch):
        built = []
        for cls in (LatentVector, FeatureMap, Matrix, ChannelStats):
            original = cls.__post_init__

            def counting(self, _original=original):
                built.append(type(self).__name__)
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        counts = []
        for steps in (2, 6):
            built.clear()
            run_sandbox(SandboxConfig(schedule=DdimScheduleConfig(steps=steps)))
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_report_shape(self):
        report = run_sandbox(SandboxConfig(n_images=3, schedule=DdimScheduleConfig(steps=7)))
        assert len(report.per_step_stat_distance) == 7
        assert report.final_stat_distance == report.per_step_stat_distance[-1]
        assert 0.0 <= report.final_ref_mass <= 1.0

    def test_config_validation(self):
        with pytest.raises(InputError):
            SandboxConfig(n_images=1)
        with pytest.raises(InputError):
            SandboxConfig(guidance_scale=0.0)
        with pytest.raises(InputError):
            SandboxConfig(seed=-1)
