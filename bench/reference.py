"""Independent computations the benchmark checks the program's outputs against.

Everything here is written from the documented algorithms on plain float64
arrays, with BLAS matmul where the program uses fixed-order einsum. Nothing
is imported from latentblendkit, so a wrong result in the library cannot
also be the expected value.
"""

from __future__ import annotations

import math

import numpy as np

EPS_STD = 1e-5
STRENGTH_SCALE = 0.05


class CheckFailed(AssertionError):
    """An output disagrees with its reference computation or property."""


def close(name: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != expected {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        err = float(np.max(np.abs(got - want)))
        raise CheckFailed(f"{name}: max abs error {err:.3e} beyond rtol={rtol}, atol={atol}")


def equal(name: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{name}: {got!r} != expected {want!r}")


# -- sandbox -----------------------------------------------------------------


def schedule_alpha_cumprod(steps: int, beta_start: float, beta_end: float) -> np.ndarray:
    if steps == 1:
        betas = np.array([beta_start])
    else:
        betas = np.linspace(math.sqrt(beta_start), math.sqrt(beta_end), steps) ** 2
        betas[0], betas[-1] = beta_start, beta_end
    return np.cumprod(1.0 - betas)


def _stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row population mean and floored std of a (channels, positions) map."""
    return x.mean(axis=1), np.maximum(x.std(axis=1), EPS_STD)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sandbox(
    seed: int,
    guidance: float,
    n_images: int,
    shape: tuple[int, int],
    steps: int = 50,
    beta_start: float = 0.00085,
    beta_end: float = 0.012,
) -> dict:
    """The sandbox loop with identity rescale, in (channels, positions) layout.

    Image 0 is the reference; each step shuffles every generated map's
    positions, AdaIN-normalises it against the reference statistics, lets
    its tokens attend over [reference tokens || normalised self tokens] with
    values [reference || raw self], and blends toward the attention output
    with strength min(1, 0.05 * guidance * (1 - alpha_cumprod[t])).
    """
    acp = schedule_alpha_cumprod(steps, beta_start, beta_end)
    c, n = shape
    rng = np.random.default_rng(seed)
    ref_mean = rng.uniform(-4.0, 4.0, size=c)
    ref_std = rng.uniform(0.2, 0.6, size=c)
    ref = ref_mean[:, None] + ref_std[:, None] * rng.standard_normal((c, n))
    gens = [rng.standard_normal((c, n)) for _ in range(n_images - 1)]
    perm = rng.permutation(n)
    rm, rs = _stats(ref)

    def distance() -> float:
        total = 0.0
        for g in gens:
            m, s = _stats(g)
            total += math.sqrt(float(((m - rm) ** 2).sum()) + float(((s - rs) ** 2).sum()))
        return total / len(gens)

    initial = distance()
    per_step = []
    masses = [0.0] * len(gens)
    for t in range(steps):
        strength = min(1.0, STRENGTH_SCALE * guidance * (1.0 - float(acp[t])))
        for i, g in enumerate(gens):
            x = g[:, perm]
            m, s = _stats(x)
            x_hat = rs[:, None] * (x - m[:, None]) / s[:, None] + rm[:, None]
            logits = x_hat.T @ np.concatenate([ref, x_hat], axis=1) / math.sqrt(c)
            w = _softmax(logits)
            out = np.concatenate([ref, x], axis=1) @ w.T
            masses[i] = float(w[:, :n].sum(axis=1).mean())
            gens[i] = (1.0 - strength) * x + strength * out
        per_step.append(distance())
    return {
        "initial_stat_distance": initial,
        "final_stat_distance": per_step[-1],
        "final_ref_mass": sum(masses) / len(masses),
        "per_step_stat_distance": per_step,
    }


def check_sandbox_report(name: str, got: dict, want: dict, steps: int) -> None:
    """Reference agreement plus the structural properties that hold for any seed.

    Guidance monotonicity and per-step descent are deliberately not asserted:
    they fail for many seeds (see bench/README.md).
    """
    equal(f"{name} steps", len(got["per_step_stat_distance"]), steps)
    if not 0.0 < got["final_ref_mass"] < 1.0:
        raise CheckFailed(f"{name}: final_ref_mass {got['final_ref_mass']} outside (0, 1)")
    for key in ("initial_stat_distance", "final_stat_distance", "final_ref_mass"):
        close(f"{name} {key}", got[key], want[key])
    close(f"{name} per_step_stat_distance", got["per_step_stat_distance"], want["per_step_stat_distance"])


# -- scoring -------------------------------------------------------------------


def wms(generated: np.ndarray, refs: np.ndarray, weights) -> dict:
    """MS per reference from row-normalised matmul, WMS and the MS gap."""
    g = generated / np.linalg.norm(generated, axis=1, keepdims=True)
    r = refs / np.linalg.norm(refs, axis=1, keepdims=True)
    ms = np.clip(g @ r.T, -1.0, 1.0).mean(axis=0)
    w = np.asarray(weights, dtype=np.float64)
    return {"ms": ms, "wms": float((w / w.sum()) @ ms), "gap": float(ms.max() - ms.min())}


# -- blending ------------------------------------------------------------------


def sli(vectors: list[np.ndarray], weights: list[float], eps_omega: float = 1e-7) -> dict:
    """Descending-weight pairwise spherical fold with t = w_next / cumulative."""
    total = math.fsum(weights)
    w = [x / total for x in weights]
    order = sorted(range(len(w)), key=lambda i: (-w[i], i))
    cum = vectors[order[0]]
    running = w[order[0]]
    omegas = []
    for i in order[1:]:
        running += w[i]
        t = w[i] / running
        v = vectors[i]
        cos = float(cum @ v) / (np.linalg.norm(cum) * np.linalg.norm(v))
        omega = math.acos(min(1.0, max(-1.0, cos)))
        if math.pi - omega < eps_omega:
            raise CheckFailed("reference fold met antipodal vectors; regenerate inputs")
        omegas.append(omega)
        if omega < eps_omega:
            cum = (1.0 - t) * cum + t * v
        else:
            cum = (math.sin((1.0 - t) * omega) * cum + math.sin(t * omega) * v) / math.sin(omega)
    return {"vector": cum, "order": order, "omegas": omegas}


def linear(vectors: list[np.ndarray], weights: list[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    return (w / w.sum()) @ np.stack(vectors)


# -- attention -----------------------------------------------------------------


def _entropy(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w > 0, -w * np.log(w), 0.0).sum(axis=1)


def shared_attend(tokens: np.ndarray, ref: np.ndarray, threshold: float = 0.5) -> dict:
    """`attend --auto-classify`: key-norm class, then shared attention with
    the tokens as Q/K/V on each side."""
    famous = float(np.linalg.norm(ref, axis=1).mean()) > threshold
    mu, sigma = (0.0, 0.5) if famous else (math.log(2.0), 1.0)
    ms, ss = tokens.mean(axis=0), np.maximum(tokens.std(axis=0), EPS_STD)
    rm, rs = ref.mean(axis=0), np.maximum(ref.std(axis=0), EPS_STD)
    x_hat = rs * (tokens - ms) / ss + rm
    logits = x_hat @ np.concatenate([ref, x_hat]).T / math.sqrt(tokens.shape[1])
    n_ref = ref.shape[0]
    logits[:, :n_ref] = logits[:, :n_ref] * sigma + mu
    w = _softmax(logits)
    return {
        "classification": "famous" if famous else "normal",
        "mu": mu,
        "sigma": sigma,
        "ref_mass": float(w[:, :n_ref].sum(axis=1).mean()),
        "row_entropy": _entropy(w),
    }


def lambda_attend(tokens: np.ndarray, blocks: list[np.ndarray], weights: list[float]) -> dict:
    """Joint softmax over style blocks whose logits are scaled by w_i / sum(w)."""
    lam = np.asarray(weights, dtype=np.float64) / math.fsum(weights)
    scale = math.sqrt(tokens.shape[1])
    logits = np.concatenate([l * (tokens @ b.T) / scale for l, b in zip(lam, blocks)], axis=1)
    w = _softmax(logits)
    bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
    mass = [float(w[:, a:b].sum(axis=1).mean()) for a, b in zip(bounds[:-1], bounds[1:])]
    return {"lambdas": lam, "block_mass": mass, "row_entropy": _entropy(w)}


# -- fusion --------------------------------------------------------------------


def paraphrase(text: str, l_min: int = 8) -> str:
    """The shipped provider's transform: the first l_min words, reversed, lowercased."""
    return " ".join(w.lower() for w in reversed(text.split()[:l_min]))


def fused_prompt(entries: list[dict], catalog_texts: list[str], catalog_emb: np.ndarray, k: int = 10) -> str:
    """Music by cosine argmax over the catalog (first index on ties), weather
    by the fixed template, paraphrase when word count exceeds k, joined by ', '."""
    unit_catalog = catalog_emb / np.linalg.norm(catalog_emb, axis=1, keepdims=True)
    parts = []
    for e in entries:
        if e["modality"] == "music":
            emb = np.asarray(e["embedding"], dtype=np.float64)
            text = catalog_texts[int(np.argmax(unit_catalog @ (emb / np.linalg.norm(emb))))]
        elif e["modality"] == "weather":
            text = f"{e['condition']}, {e['temperature_c']:.1f} degrees, wind {e['wind_mps']:.1f} m/s"
        else:
            text = e["text"]
        if len(text.split()) > k:
            text = paraphrase(text)
        if text:
            parts.append(text)
    return ", ".join(parts)
