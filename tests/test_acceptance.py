"""Acceptance suite: one test per release criterion, each printing a PASS
line with its headline numbers (run with ``pytest -s`` to see them)."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from latentblendkit import (
    AdainConfig,
    AntipodalVectors,
    DdimScheduleConfig,
    EmbeddingSet,
    FeatureMap,
    FusionConfig,
    GUIDANCE_GRID,
    LatentVector,
    Matrix,
    ModalityDescription,
    RescaleParams,
    ReferenceStyle,
    SandboxConfig,
    StyleBlock,
    WeightedStyleSet,
    adain,
    best_music_query,
    build_schedule,
    channel_stats,
    chord_and_arc,
    cosine_similarity,
    default_query_catalog,
    lambda_rescaled_attention,
    linear_blend,
    needs_paraphrasing,
    norm,
    run_sandbox,
    score_drop_bound,
    shared_attention,
    slerp_pair,
    sli_blend,
    unit,
    weighted_score,
    wms_score,
)
from latentblendkit.tensorcore import _softmax_rows_array

GOLDEN = Path(__file__).parent / "golden"

# Frozen two-style (medieval/cubism) evaluation grids: per-row weights,
# per-style mean similarities, and the published weighted score. ``None``
# marks a style that was not measured in that row (its weight is zero).
WMS_GRID_LINEAR = [
    ((0.00, 1.00), (None, 0.47552), 0.47552),
    ((0.15, 0.85), (0.32466, 0.42683), 0.41151),
    ((0.25, 0.75), (0.35550, 0.42250), 0.40575),
    ((0.50, 0.50), (0.34905, 0.37881), 0.36393),
    ((0.75, 0.25), (0.35798, 0.38327), 0.36430),
    ((0.85, 0.15), (0.35513, 0.40860), 0.36315),
    ((1.00, 0.00), (0.29891, None), 0.29891),
]
WMS_GRID_SLI = [
    ((0.00, 1.00), (None, 0.47552), 0.47552),
    ((0.15, 0.85), (0.32595, 0.47072), 0.44900),
    ((0.25, 0.75), (0.33046, 0.45447), 0.42347),
    ((0.50, 0.50), (0.36150, 0.42156), 0.39153),
    ((0.75, 0.25), (0.34648, 0.35099), 0.34760),
    ((0.85, 0.15), (0.36513, 0.38286), 0.36779),
    ((1.00, 0.00), (0.29891, None), 0.29891),
]


def embedding_set_for_ms(ms_pair, weights):
    """A one-image embedding set whose per-style MS values equal ``ms_pair``
    exactly: cosines to the basis references are the coordinates of a unit
    vector (unmeasured styles enter with coordinate 0 and weight 0)."""
    a = ms_pair[0] if ms_pair[0] is not None else 0.0
    b = ms_pair[1] if ms_pair[1] is not None else 0.0
    gen = LatentVector([a, b, math.sqrt(1.0 - a * a - b * b)])
    return EmbeddingSet(
        generated=(gen,),
        references=(
            ReferenceStyle("med", unit(0, 3), weights[0]),
            ReferenceStyle("cub", unit(1, 3), weights[1]),
        ),
    )


def test_criterion_01_wms_table_reproduction():
    """Both halves of the two-style grid reproduce within 5e-5."""
    worst = 0.0
    for label, grid in (("linear", WMS_GRID_LINEAR), ("sli", WMS_GRID_SLI)):
        for weights, ms_pair, printed_wms in grid:
            # degenerate rows need weights summing to 1 with the lone style
            report = wms_score(embedding_set_for_ms(ms_pair, weights))
            assert report.wms == pytest.approx(printed_wms, abs=5e-5), (label, weights)
            worst = max(worst, abs(report.wms - printed_wms))
            # and the bare arithmetic layer agrees
            ms = [m if m is not None else 0.0 for m in ms_pair]
            assert weighted_score(ms, weights) == pytest.approx(printed_wms, abs=5e-5)
    print(f"\nACCEPTANCE 01 PASS - WMS table reproduction, worst |error| = {worst:.2e}")


def test_criterion_02_slerp_property_suite():
    rng = np.random.default_rng(20240501)
    t_grid = [round(0.1 * i, 1) for i in range(11)]
    started = time.perf_counter()
    worst_norm_err = 0.0
    for _ in range(10_000):
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        va = LatentVector(a / np.linalg.norm(a))
        vb = LatentVector(b / np.linalg.norm(b))
        for t in t_grid:
            v, _ = slerp_pair(va, vb, t)
            worst_norm_err = max(worst_norm_err, abs(norm(v) - 1.0))
        v0, _ = slerp_pair(va, vb, 0.0)
        v1, _ = slerp_pair(va, vb, 1.0)
        assert v0.data.tobytes() == va.data.tobytes()
        assert v1.data.tobytes() == vb.data.tobytes()
    assert worst_norm_err < 1e-9

    # degenerate angle: straight-line fallback
    v = LatentVector([0.6, 0.8])
    out, omega = slerp_pair(v, v, 0.3)
    assert omega < 1e-7
    np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    # antipodal pair is an error
    with pytest.raises(AntipodalVectors):
        slerp_pair(unit(0, 3), LatentVector([-1.0, 0.0, 0.0]), 0.5)

    # two-style recursion == direct pairwise interpolation
    for _ in range(1_000):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        va = LatentVector(a / np.linalg.norm(a))
        vb = LatentVector(b / np.linalg.norm(b))
        w = rng.uniform(0.05, 1.0, size=2)
        blended = sli_blend(WeightedStyleSet.of([va, vb], list(w)))
        hi, lo, w_lo = (va, vb, w[1]) if w[0] >= w[1] else (vb, va, w[0])
        direct, _ = slerp_pair(hi, lo, w_lo / (w[0] + w[1]))
        np.testing.assert_allclose(blended.vector.data, direct.data, rtol=1e-12, atol=1e-15)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 02 PASS - slerp suite, worst norm error {worst_norm_err:.2e}, {elapsed:.2f}s")


def test_criterion_03_geodesic_inequality():
    # chord <= arc over a dense angle grid, via actual vector pairs
    omegas = np.linspace(math.pi / 10_000, math.pi, 10_000)
    for omega in omegas:
        a = unit(0, 2)
        b = LatentVector([math.cos(omega), math.sin(omega)])
        d_lin, d_geo = chord_and_arc(a, b)
        assert d_lin <= d_geo + 1e-12
        assert d_geo == pytest.approx(omega, abs=1e-9)

    rng = np.random.default_rng(77)
    shrink_violations = 0
    for _ in range(10_000):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        va = LatentVector(a / np.linalg.norm(a))
        vb = LatentVector(b / np.linalg.norm(b))
        d_lin, d_geo = chord_and_arc(va, vb)
        assert d_lin <= d_geo + 1e-12
        r = linear_blend(WeightedStyleSet.of([va, vb], [0.5, 0.5]))
        if norm(r.vector) >= 1.0:
            shrink_violations += 1
    assert shrink_violations == 0
    print("\nACCEPTANCE 03 PASS - geodesic inequality and linear-norm shrinkage")


def test_criterion_04_attention_suite():
    rng = np.random.default_rng(88)

    # weight rows sum to 1
    for _ in range(200):
        n_self, n_ref, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        out = shared_attention(
            Matrix(rng.normal(size=(n_self, d))), Matrix(rng.normal(size=(n_self, d))),
            Matrix(rng.normal(size=(n_self, 2))), Matrix(rng.normal(size=(n_ref, d))),
            Matrix(rng.normal(size=(n_ref, d))), Matrix(rng.normal(size=(n_ref, 2))),
        )
        np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-9)

    # uniform logit shift cancels
    for _ in range(100):
        logits = rng.normal(scale=4.0, size=(3, 6))
        np.testing.assert_allclose(
            _softmax_rows_array(logits + rng.normal(scale=20.0)),
            _softmax_rows_array(logits),
            atol=1e-9,
        )

    # sigma and mu monotonicity on positive-logit fixtures
    for _ in range(50):
        base_q = rng.uniform(0.5, 1.5, size=(4, 3))
        base_k = rng.uniform(0.5, 1.5, size=(4, 3))
        ref_q, self_q = Matrix(base_q), Matrix(base_q[rng.permutation(4)])
        ref_k, self_k = Matrix(base_k), Matrix(base_k[rng.permutation(4)])
        ref_v = Matrix(rng.normal(size=(4, 2)))
        self_v = Matrix(rng.normal(size=(4, 2)))

        def mass(mu, sigma):
            return shared_attention(
                self_q, self_k, self_v, ref_q, ref_k, ref_v, rescale=RescaleParams(mu, sigma)
            ).ref_mass

        assert mass(0.0, 0.5) < mass(0.0, 1.0) < mass(0.0, 2.0)
        assert mass(-0.5, 1.0) < mass(0.0, 1.0) < mass(0.5, 1.0)

    # per-block mass ordering matches weight ordering on identical blocks
    k = Matrix(rng.uniform(0.2, 1.0, size=(3, 2)))
    v = Matrix(rng.normal(size=(3, 2)))
    q = Matrix(rng.uniform(0.2, 1.0, size=(5, 2)))
    weights = [0.1, 0.6, 0.3]
    out = lambda_rescaled_attention(q, [StyleBlock(k=k, v=v, weight=w) for w in weights])
    assert np.argsort(out.block_mass).tolist() == np.argsort(weights).tolist()

    # closed forms
    two_thirds = shared_attention(
        Matrix([[3.0]]), Matrix([[2.0]]), Matrix([[1.0]]),
        Matrix([[1.0]]), Matrix([[0.0]]), Matrix([[0.0]]),
        rescale=RescaleParams(mu=math.log(2.0), sigma=1.0),
    ).ref_mass
    assert two_thirds == pytest.approx(2.0 / 3.0, abs=1e-6)

    lam = lambda_rescaled_attention(
        Matrix([[1.0]]),
        [StyleBlock(k=Matrix([[1.0]]), v=Matrix([[1.0]]), weight=1.0),
         StyleBlock(k=Matrix([[1.0]]), v=Matrix([[1.0]]), weight=3.0)],
    )
    assert lam.block_mass[0] == pytest.approx(0.37754, abs=1e-6)
    assert lam.block_mass[1] == pytest.approx(0.62246, abs=1e-6)
    print("\nACCEPTANCE 04 PASS - attention suite incl. closed forms 2/3 and (0.37754, 0.62246)")


def test_criterion_05_adain_statistic_transfer():
    rng = np.random.default_rng(99)
    cfg = AdainConfig()
    worst_mean = worst_std = worst_idem = 0.0
    for _ in range(1_000):
        c = int(rng.integers(1, 6))
        g = FeatureMap(rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=(c, int(rng.integers(8, 40)))))
        s = FeatureMap(rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=(c, int(rng.integers(8, 40)))))
        out = adain(g, s, cfg)
        ss = channel_stats(s, cfg.eps_std)
        os_ = channel_stats(out, cfg.eps_std)
        worst_mean = max(worst_mean, np.abs(os_.mean - ss.mean).max())
        worst_std = max(worst_std, (np.abs(os_.std - ss.std) / ss.std).max())
        again = adain(out, s, cfg)
        worst_idem = max(worst_idem, np.abs(again.data - out.data).max())
    assert worst_mean < 1e-9
    assert worst_std < 1e-6
    assert worst_idem < 1e-9
    print(
        f"\nACCEPTANCE 05 PASS - AdaIN transfer (mean {worst_mean:.1e}, "
        f"rel std {worst_std:.1e}, idempotence {worst_idem:.1e})"
    )


def test_criterion_06_score_drop_bound():
    rng = np.random.default_rng(111)
    for _ in range(1_000):
        k = int(rng.integers(1, 6))
        d = int(rng.integers(2, 10))
        es = EmbeddingSet(
            generated=tuple(LatentVector(rng.normal(size=d)) for _ in range(int(rng.integers(1, 6)))),
            references=tuple(
                ReferenceStyle(f"s{i}", LatentVector(rng.normal(size=d)), float(rng.uniform(0.01, 2.0)))
                for i in range(k)
            ),
        )
        bound = score_drop_bound(es)
        assert bound.holds
        assert bound.wms <= bound.max_ms + 1e-12
    print("\nACCEPTANCE 06 PASS - weighted score never exceeds best single-style MS (1000 draws)")


def test_criterion_07_fusion_contracts(tmp_path):
    cfg = FusionConfig(verbosity_threshold_k=10)
    ten = ModalityDescription.from_text("image", " ".join(["w"] * 10))
    eleven = ModalityDescription.from_text("image", " ".join(["w"] * 11))
    assert not needs_paraphrasing(ten, cfg)
    assert needs_paraphrasing(eleven, cfg)

    catalog = default_query_catalog()
    assert len(catalog.queries) == 24
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = LatentVector(rng.normal(size=24))
        match = best_music_query(m, catalog)
        brute = max(range(24), key=lambda i: cosine_similarity(m, catalog.queries[i].embedding))
        assert match.index == brute

    # order preservation through the CLI plus provider exit codes 4 and 5
    from click.testing import CliRunner

    from latentblendkit.cli import main as cli_main

    long_text = " ".join(["tok"] * 12)
    inputs = tmp_path / "in.json"
    inputs.write_text(json.dumps([
        {"modality": "text", "text": "alpha"},
        {"modality": "image", "text": long_text},
        {"modality": "weather", "condition": "fog", "temperature_c": 1.0, "wind_mps": 0.0},
    ]))
    fixture = tmp_path / "fix.json"
    fixture.write_text(json.dumps({long_text: "beta"}))
    runner = CliRunner()
    ok = runner.invoke(cli_main, ["fuse", "--inputs", str(inputs), "--provider", str(fixture)])
    assert ok.exit_code == 0, ok.output
    assert ok.output.strip() == "alpha, beta, fog, 1.0 degrees, wind 0.0 m/s"

    missing = runner.invoke(cli_main, ["fuse", "--inputs", str(inputs), "--provider", str(tmp_path / "none.json")])
    assert missing.exit_code == 4

    fixture.write_text("{broken")
    broken = runner.invoke(cli_main, ["fuse", "--inputs", str(inputs), "--provider", str(fixture)])
    assert broken.exit_code == 5
    print("\nACCEPTANCE 07 PASS - fusion threshold/argmax/order and provider exit codes 4, 5")


def test_criterion_08_schedule_endpoints():
    sched = build_schedule(DdimScheduleConfig())
    assert sched.betas[0] == 0.00085
    assert sched.betas[49] == 0.012
    assert (np.diff(sched.alpha_cumprod) < 0).all()

    s0, s1 = math.sqrt(0.00085), math.sqrt(0.012)
    betas = [(s0 + (t / 49) * (s1 - s0)) ** 2 for t in range(50)]
    betas[0], betas[-1] = 0.00085, 0.012
    oracle = 1.0
    for b in betas:
        oracle *= 1.0 - b
    rel = abs(sched.alpha_cumprod[49] - oracle) / oracle
    assert rel <= 1e-15
    print(f"\nACCEPTANCE 08 PASS - schedule endpoints exact, cumprod vs oracle rel err {rel:.1e}")


def _sandbox_cli_bytes(threads: int) -> bytes:
    import os

    import latentblendkit

    env = dict(os.environ)
    # run the CLI of the package under test, also when it is importable only
    # through pytest's ``pythonpath`` setting
    src = str(Path(latentblendkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "latentblendkit.cli", "sandbox", "--format", "json"],
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_criterion_09_sandbox_properties():
    cfg = SandboxConfig()
    a = run_sandbox(cfg)
    b = run_sandbox(cfg)
    assert a == b  # bit-identical across runs in-process

    one_thread = _sandbox_cli_bytes(1)
    four_threads = _sandbox_cli_bytes(4)
    assert one_thread == four_threads  # and across BLAS/OpenMP thread counts

    golden = json.loads((GOLDEN / "sandbox_default.json").read_text())
    assert a.final_stat_distance == pytest.approx(golden["final_stat_distance"], rel=1e-12)
    assert a.final_stat_distance < 0.5 * a.initial_stat_distance

    finals = [
        run_sandbox(SandboxConfig(guidance_scale=g, seed=7)).final_stat_distance
        for g in GUIDANCE_GRID
    ]
    for lo, hi in zip(finals, finals[1:]):
        assert hi <= lo
    ratio = a.final_stat_distance / a.initial_stat_distance
    print(
        f"\nACCEPTANCE 09 PASS - sandbox bit-reproducible, convergence ratio {ratio:.3f} < 0.5, "
        f"guidance sweep {['%.3f' % f for f in finals]} non-increasing"
    )


def test_criterion_10_io_round_trip(tmp_path):
    from latentblendkit import (
        BadMagic,
        TruncatedPayload,
        UnsupportedDtype,
        UnsupportedOrder,
        load_array,
        write_vectors,
    )

    rng = np.random.default_rng(321)
    for i in range(1_000):
        if rng.integers(2):
            shape = (int(rng.integers(1, 50)),)
        else:
            shape = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        data = rng.normal(size=shape)
        path = tmp_path / f"case_{i}.npy"
        if rng.integers(2):
            np.save(path, data.astype(np.float32))
            expected = data.astype(np.float32).astype(np.float64)
        else:
            write_vectors(path, data)
            expected = data
        got = load_array(path)
        assert got.shape == shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
        path.unlink()

    bad = tmp_path / "bad.npy"
    bad.write_bytes(b"JUNKXX" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        load_array(bad)
    np.save(bad, np.arange(4))
    with pytest.raises(UnsupportedDtype):
        load_array(bad)
    np.save(bad, np.asfortranarray(np.ones((2, 3))))
    with pytest.raises(UnsupportedOrder):
        load_array(bad)
    np.save(bad, np.ones(8))
    raw = bad.read_bytes()
    bad.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayload):
        load_array(bad)
    print("\nACCEPTANCE 10 PASS - 1000 round trips bit-exact, malformed headers rejected")
