import concurrent.futures
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SandboxReport,
    build_schedule,
    run_guidance_sweep,
    run_sandbox,
)
from latentblendkit import sandbox

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


def report_for(c: dict):
    """The sandbox report of a golden file's config."""
    return run_sandbox(
        SandboxConfig(
            guidance_scale=c["guidance_scale"],
            seed=c["seed"],
            n_images=c["n_images"],
            feature_shape=tuple(c["feature_shape"]),
            schedule=DdimScheduleConfig(**c["schedule"]),
            rescale=RescaleParams(**c["rescale"]),
        )
    )


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
        assert report_for(golden["config"]).to_dict() == {k: v for k, v in golden.items() if k != "config"}

    def test_wide_golden_exact(self):
        # above the thread-pool gate; captured from the serial loop
        golden = json.loads((GOLDEN / "sandbox_wide.json").read_text())
        assert report_for(golden["config"]).to_dict() == {k: v for k, v in golden.items() if k != "config"}

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


def loop_reference(cfg: SandboxConfig) -> SandboxReport:
    """The sandbox one image at a time in plain numpy, with the kernels'
    arithmetic, operand layouts and summation orders written out: stacked
    runs must reproduce it bit for bit."""
    eps = 1e-5
    acp = build_schedule(cfg.schedule).alpha_cumprod
    c, n = cfg.feature_shape
    rng = np.random.default_rng(cfg.seed)
    ref_mean = rng.uniform(-4.0, 4.0, size=c)
    ref_std = rng.uniform(0.2, 0.6, size=c)
    ref = ref_mean[:, None] + ref_std[:, None] * rng.standard_normal((c, n))
    gens = [rng.standard_normal((c, n)) for _ in range(cfg.n_images - 1)]
    perm = rng.permutation(n)
    mu, sd = ref.mean(axis=1), np.maximum(ref.std(axis=1), eps)

    def stats(x):
        x = np.ascontiguousarray(x)
        return x.mean(axis=1), np.maximum(x.std(axis=1), eps)

    def distance(x):
        m, s = stats(x)
        return math.sqrt(float(((m - mu) ** 2).sum()) + float(((s - sd) ** 2).sum()))

    def mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values)

    initial = mean([distance(g) for g in gens])
    per_step = []
    for a in acp:
        strength = min(1.0, 0.05 * cfg.guidance_scale * (1.0 - float(a)))
        new_gens, masses = [], []
        for g in gens:
            shuffled = g[:, perm]
            g_mean, g_std = stats(shuffled)
            normed = np.ascontiguousarray((sd[:, None] * (shuffled - g_mean[:, None]) / g_std[:, None] + mu[:, None]).T)
            keys = np.ascontiguousarray(np.concatenate([ref.T, normed]))
            values = np.ascontiguousarray(np.concatenate([ref.T, shuffled.T]))
            logits = np.einsum("id,jd->ij", normed, keys) / math.sqrt(c)
            logits[:, :n] = logits[:, :n] * cfg.rescale.sigma + cfg.rescale.mu
            w = np.exp(logits - logits.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            new_gens.append((1.0 - strength) * shuffled + strength * np.einsum("ij,jv->iv", w, values).T)
            masses.append(float(w[:, :n].sum(axis=1).mean()))
        gens = new_gens
        per_step.append(mean([distance(g) for g in gens]))
    return SandboxReport(initial, tuple(per_step), sum(masses) / len(masses), per_step[-1])


small_configs = st.builds(
    SandboxConfig,
    seed=st.integers(0, 10_000),
    n_images=st.integers(2, 4),
    feature_shape=st.tuples(st.integers(1, 6), st.integers(2, 24)),
    schedule=st.builds(
        DdimScheduleConfig,
        beta_schedule=st.sampled_from(["scaled_linear", "linear"]),
        steps=st.integers(1, 6),
    ),
    rescale=st.builds(RescaleParams, mu=st.floats(-2.0, 2.0), sigma=st.floats(0.1, 2.0)),
)


class TestGuidanceSweep:
    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs, guidances=st.lists(st.floats(0.1, 60.0), min_size=1, max_size=4))
    def test_sweep_equals_one_run_per_guidance(self, cfg, guidances):
        reports = run_guidance_sweep(cfg, guidances)
        assert reports == tuple(run_sandbox(replace(cfg, guidance_scale=g)) for g in guidances)
        assert reports == tuple(loop_reference(replace(cfg, guidance_scale=g)) for g in guidances)

    @pytest.mark.parametrize(
        "cfg",
        [
            SandboxConfig(schedule=DdimScheduleConfig(steps=10)),
            # one channel: the only shapes where the value block's layout
            # changed the sums in a trial of 96 configs
            SandboxConfig(seed=310, n_images=5, feature_shape=(1, 58),
                          schedule=DdimScheduleConfig(beta_schedule="linear", steps=20),
                          rescale=RescaleParams(mu=-0.9, sigma=0.8)),
            SandboxConfig(seed=146, n_images=7, feature_shape=(1, 24),
                          schedule=DdimScheduleConfig(beta_schedule="linear", steps=8),
                          rescale=RescaleParams(mu=0.69, sigma=0.8)),
            # 9 maps of a quarter of the gate's work: calls of 4, 4 and 1 map
            SandboxConfig(feature_shape=(16, 64), schedule=DdimScheduleConfig(steps=3)),
        ],
    )
    def test_sweep_equals_loop_reference(self, cfg):
        grid = (5.0, 10.0, 30.0)
        assert run_guidance_sweep(cfg, grid) == tuple(loop_reference(replace(cfg, guidance_scale=g)) for g in grid)

    def test_default_grid_is_one_kernel_call_per_step(self, monkeypatch):
        created = TestThreadedSteps._spy_pools(monkeypatch)
        calls = []
        attention = sys.modules["latentblendkit.attention"]  # the package exports a function of that name
        real_softmax = attention._softmax_rows_array

        def counting(logits):
            calls.append(logits.shape)
            return real_softmax(logits)

        monkeypatch.setattr(attention, "_softmax_rows_array", counting)
        reports = run_guidance_sweep(SandboxConfig(schedule=DdimScheduleConfig(steps=7)))
        assert len(reports) == len(GUIDANCE_GRID)
        # 6 guidance values x 3 generated images, all in one stack
        assert calls == [(18, 32, 64)] * 7
        assert created == []

    def test_pool_is_capped_by_the_stack(self, monkeypatch):
        # one generated image, but six guidance values: six maps to share out
        created = TestThreadedSteps._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg = replace(TestThreadedSteps.WIDE, n_images=2, schedule=DdimScheduleConfig(steps=2))
        reports = run_guidance_sweep(cfg)
        assert created == [len(GUIDANCE_GRID)]
        monkeypatch.undo()
        assert reports == tuple(run_sandbox(replace(cfg, guidance_scale=g)) for g in GUIDANCE_GRID)

    def test_guidance_validation(self):
        with pytest.raises(InputError):
            run_guidance_sweep(SandboxConfig(), ())
        with pytest.raises(InputError):
            run_guidance_sweep(SandboxConfig(), (5.0, 0.0))


class TestThreadedSteps:
    # (16, 128) is the smallest shape at the pool gate
    WIDE = SandboxConfig(
        n_images=9,
        feature_shape=(16, 128),
        schedule=DdimScheduleConfig(steps=6),
        rescale=RescaleParams(mu=0.69, sigma=0.8),
    )

    @staticmethod
    def _spy_pools(monkeypatch):
        """Record the max_workers of every pool run_sandbox creates."""
        created = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def spy(max_workers):
            created.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        return created

    def test_import_starts_no_thread(self):
        code = (
            "import sys, threading, latentblendkit.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        src = str(Path(sandbox.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=60
        )
        assert out.stdout.split() == ["1", "False"], out.stderr

    def test_gate_sits_at_the_wide_config(self):
        c, n = self.WIDE.feature_shape
        assert c * n * n == sandbox._THREAD_MIN_WORK

    def test_small_shapes_create_no_pool(self, monkeypatch):
        created = self._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        run_sandbox(SandboxConfig())
        run_sandbox(SandboxConfig(n_images=3, feature_shape=(16, 48)))
        run_sandbox(SandboxConfig(n_images=2, feature_shape=(16, 128)))  # one image: nothing to share
        assert created == []

    def test_more_workers_than_cores_match_serial(self, monkeypatch):
        created = self._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run_sandbox(self.WIDE).to_dict()
        assert created == []

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: reports.extend(run_sandbox(self.WIDE).to_dict() for _ in range(4)),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert created == [8] * 4  # one worker per generated image, more than the cores
        assert reports == [serial] * 4

    def test_affinity_fallback_to_cpu_count(self, monkeypatch):
        created = self._spy_pools(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        report = run_sandbox(self.WIDE)
        assert created == [3]
        monkeypatch.undo()
        assert report == run_sandbox(self.WIDE)
