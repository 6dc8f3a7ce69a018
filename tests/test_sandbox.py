import builtins
import concurrent.futures
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
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
    NumericDomainError,
    RescaleParams,
    SandboxConfig,
    SandboxReport,
    build_schedule,
    run_guidance_sweep,
    run_sandbox,
)
from latentblendkit import metrics, sandbox, tensorcore
from latentblendkit.cli import main

from cpu_note import cpu_note

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
    return SandboxReport(initial, tuple(per_step), mean(masses), per_step[-1])


def compensated_sum(values, start=0):
    """The builtin ``sum`` of floats as Python 3.12 and later compute it:
    Neumaier's compensated summation. Other values are added by the running
    interpreter's ``sum``."""
    values = list(values)
    if not all(isinstance(v, float) for v in values):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


class TestLeftToRightSums:
    """Every reported mean sums left to right through ``tensorcore._sum``,
    so no report depends on how the builtin ``sum`` adds floats."""

    def test_reports_do_not_depend_on_the_builtin_sum(self, monkeypatch, tmp_path):
        assert (compensated_sum([0.1] * 10), tensorcore._sum([0.1] * 10)) == (1.0, 0.9999999999999999)
        # at seed 0 a compensated sum moved the last bit of final_ref_mass
        # at guidance 25
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0}))
        argv = ["sandbox", "--config", str(cfg), "--guidance-grid", "--format", "json"]
        reports = run_guidance_sweep(SandboxConfig(seed=0))
        printed = CliRunner().invoke(main, argv)
        assert printed.exit_code == 0, printed.output
        for module in (sandbox, metrics):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert run_guidance_sweep(SandboxConfig(seed=0)) == reports
        assert CliRunner().invoke(main, argv).output == printed.output


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
            # positions just below, at and above the mirrored self block's
            # gate, in calls of two maps
            SandboxConfig(n_images=3, feature_shape=(8, 127), schedule=DdimScheduleConfig(steps=3),
                          rescale=RescaleParams(mu=0.69, sigma=0.8)),
            SandboxConfig(n_images=3, feature_shape=(8, 128), schedule=DdimScheduleConfig(steps=3)),
            SandboxConfig(n_images=3, feature_shape=(8, 129), schedule=DdimScheduleConfig(steps=3),
                          rescale=RescaleParams(mu=-0.4, sigma=1.3)),
            # positions not a multiple of the 64-row tile; and one channel,
            # which the gate leaves to the full einsum
            SandboxConfig(n_images=3, feature_shape=(4, 300), schedule=DdimScheduleConfig(steps=3)),
            SandboxConfig(n_images=3, feature_shape=(1, 300), schedule=DdimScheduleConfig(steps=3)),
            # at the pool gate: one map per task on four threads, mirrored
            SandboxConfig(n_images=3, feature_shape=(16, 128), schedule=DdimScheduleConfig(steps=3),
                          rescale=RescaleParams(mu=0.69, sigma=0.8)),
            # the benchmark's shape, on the pool
            SandboxConfig(n_images=3, feature_shape=(64, 256), schedule=DdimScheduleConfig(steps=2)),
        ],
    )
    def test_sweep_equals_loop_reference(self, cfg, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        grid = (5.0, 10.0, 30.0)
        assert run_guidance_sweep(cfg, grid) == tuple(loop_reference(replace(cfg, guidance_scale=g)) for g in grid)

    @staticmethod
    def _spy_layouts(monkeypatch) -> list:
        """(maps, channels_first) of each weighted sum the sandbox takes:
        whether each map's output is a C-contiguous (channels, positions) map."""
        layouts = []
        real = sandbox._weighted_channels

        def spy(weights, values):
            updated = real(weights, values)
            channels_first = updated.shape[1:] == (values.shape[-1], weights.shape[-2]) and updated.flags.c_contiguous
            layouts.append((len(weights), channels_first))
            return updated

        monkeypatch.setattr(sandbox, "_weighted_channels", spy)
        return layouts

    def test_two_channels_first_chunks_match_loop_reference(self, monkeypatch):
        # 6 guidance values x 6 generated (8, 32) maps: 36 maps, in serial
        # chunks of 32 and 4, each taking the weighted sum channels first
        layouts = self._spy_layouts(monkeypatch)
        cfg = SandboxConfig(n_images=7, schedule=DdimScheduleConfig(steps=4))
        reports = run_guidance_sweep(cfg)
        assert layouts == [(32, True), (4, True)] * 4
        assert reports == tuple(loop_reference(replace(cfg, guidance_scale=g)) for g in GUIDANCE_GRID)

    @pytest.mark.parametrize(
        "shape, channels_first",
        # every shape, one channel too (see _weighted_channels): (2, 361) is
        # just below the thread gate, (16, 128) at it and (64, 256) above it
        [((8, 32), True), ((2, 361), True), ((1, 14), True), ((16, 128), True), ((64, 256), True)],
    )
    def test_weighted_sum_layout(self, shape, channels_first, monkeypatch):
        layouts = self._spy_layouts(monkeypatch)
        run_sandbox(SandboxConfig(n_images=2, feature_shape=shape, schedule=DdimScheduleConfig(steps=1)))
        assert layouts == [(1, channels_first)]

    def test_one_channel_keeps_the_row_layout(self, monkeypatch):
        # with one value dim einsum's channels-first call takes its dot loop,
        # which sums in another order: forced on this config, in place of the
        # row result _weighted_channels takes there, it moves the last step's
        # distance by an ulp
        cfg = SandboxConfig(seed=182, guidance_scale=30.0, n_images=2, feature_shape=(1, 14),
                            schedule=DdimScheduleConfig(steps=3), rescale=RescaleParams(mu=-1.0, sigma=2.0))
        want = loop_reference(cfg)
        assert run_sandbox(cfg) == want, cpu_note()

        def forced(weights, values):
            w_t = np.ascontiguousarray(weights.swapaxes(-1, -2))
            return tensorcore._per_matrix("ji,jv->vi", w_t, values, (values.shape[-1], weights.shape[-2]))

        monkeypatch.setattr(sandbox, "_weighted_channels", forced)
        got = run_sandbox(cfg).per_step_stat_distance
        assert got[:2] == want.per_step_stat_distance[:2], cpu_note()
        assert (got[2], want.final_stat_distance) == (3.1562120892349763, 3.156212089234976), cpu_note()

    def test_gate_configs_straddle_the_mirrored_self_block(self, monkeypatch):
        # one map, one step: the logits and the weighted sum are one einsum
        # each, unless the self logits come in 64-row tiles
        calls = []
        real_einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return real_einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        counts = {}
        for c, n in [(8, 127), (8, 128), (8, 129), (4, 300), (1, 300)]:
            calls.clear()
            run_sandbox(SandboxConfig(n_images=2, feature_shape=(c, n), schedule=DdimScheduleConfig(steps=1)))
            counts[c, n] = len(calls)
        assert tensorcore._MIRROR_MIN_ROWS == 128 and tensorcore._TILE == 64
        # the reference logits, one call per tile, the weighted sum
        assert counts == {(8, 127): 2, (8, 128): 1 + 2 + 1, (8, 129): 1 + 3 + 1, (4, 300): 1 + 5 + 1, (1, 300): 2}

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

    def test_overflow_in_pool_threads_raises_without_warnings(self, monkeypatch):
        # the pool's threads do not inherit the caller's numpy error state
        created = self._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = replace(self.WIDE, rescale=RescaleParams(mu=0.0, sigma=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match=r"^sandbox step 0 of 6 has a non-finite stat distance"):
                run_sandbox(cfg)
        assert created == [2]

    def test_affinity_fallback_to_cpu_count(self, monkeypatch):
        created = self._spy_pools(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        report = run_sandbox(self.WIDE)
        assert created == [3]
        monkeypatch.undo()
        assert report == run_sandbox(self.WIDE)


def _count_chain_steps(monkeypatch, fault=None):
    """Spy on the sandbox's weighted-sum kernel: the returned dict counts the
    calls of each chain, keyed by the order in which its value block first
    appeared. ``fault(chain, call, updated)`` may change or raise on a call's
    output; ``chain`` is that order, ``call`` the chain's call number."""
    calls: dict[int, int] = {}
    chains: dict[int, int] = {}
    lock = threading.Lock()
    real = sandbox._weighted_channels

    def spy(weights, values):
        with lock:
            chain = chains.setdefault(id(values), len(chains))
            call = calls[chain] = calls.get(chain, 0) + 1
        updated = real(weights, values)
        if fault is not None:
            fault(chain, call, updated)
        return updated

    monkeypatch.setattr(sandbox, "_weighted_channels", spy)
    return calls


class TestStepChains:
    """The chunks of maps run as chains of steps with no barrier between steps."""

    WIDE = TestThreadedSteps.WIDE

    @pytest.mark.parametrize("threads", [2, 3, 4])
    @pytest.mark.parametrize("maps", [3, 5, 7])
    def test_uneven_chains_match_serial(self, maps, threads, monkeypatch):
        cfg = replace(self.WIDE, n_images=maps + 1, schedule=DdimScheduleConfig(steps=5))
        created = TestThreadedSteps._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = run_sandbox(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
        assert run_sandbox(cfg) == serial
        assert created == [min(maps, threads)]

    def test_more_chunks_than_threads_match_loop_reference(self, monkeypatch):
        # 3 guidance values x 3 generated images: 9 chains on 2 threads
        created = TestThreadedSteps._spy_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = replace(self.WIDE, n_images=4, schedule=DdimScheduleConfig(steps=3))
        grid = (5.0, 10.0, 30.0)
        assert run_guidance_sweep(cfg, grid) == tuple(loop_reference(replace(cfg, guidance_scale=g)) for g in grid)
        assert created == [2]

    def test_late_overflow_in_one_chain_stops_every_chain_at_its_step(self, monkeypatch):
        # one thread: 6 chains, one map each, two per guidance value; chain 3,
        # the second map at guidance 10, overflows at step 4 of 6
        def overflow(chain, call, updated):
            if chain == 3 and call == 5:
                updated[...] = np.inf

        calls = _count_chain_steps(monkeypatch, overflow)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = replace(self.WIDE, n_images=3)
        with pytest.raises(
            NumericDomainError,
            match=r"^sandbox step 4 of 6 has a non-finite stat distance \(nan\) at guidance_scale 10\.0: ",
        ):
            run_guidance_sweep(cfg, (5.0, 10.0, 30.0))
        assert calls == {chain: 5 for chain in range(6)}  # steps 0 to 4, none past it

    def test_late_overflow_in_a_pool_thread(self, monkeypatch):
        # the first chain to start step 4 overflows there; a chain on the other
        # thread may finish a step it started before that, but the message is
        # the one of a step-by-step run
        first = []
        lock = threading.Lock()

        def overflow(chain, call, updated):
            with lock:
                if call == 5 and not first:
                    first.append(chain)
                    updated[...] = np.inf

        calls = _count_chain_steps(monkeypatch, overflow)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError, match=r"^sandbox step 4 of 6 has a non-finite stat distance"):
                run_sandbox(self.WIDE)
        assert len(calls) == 8 and calls[first[0]] == 5
        assert sum(calls.values()) < 8 * 6

    def test_error_in_one_thread_stops_the_others(self, monkeypatch):
        def boom(chain, call, updated):
            if call == 2:
                raise RuntimeError(f"chain {chain} failed")

        calls = _count_chain_steps(monkeypatch, boom)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = replace(self.WIDE, schedule=DdimScheduleConfig(steps=40))
        with pytest.raises(RuntimeError, match=r"^chain \d failed$"):
            run_sandbox(cfg)
        # 8 chains of 40 steps; the first error stops both threads
        assert sum(calls.values()) < 8 * 20
