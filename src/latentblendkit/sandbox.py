"""Desk-scale style-aligned generation loop.

A seeded pseudo-denoiser (a fixed spatial shuffle) stands in for the real
model; what is actually under test is the shared-attention pull: at every
step each generated feature map attends over the frozen reference map and
is blended toward the attention output with a strength proportional to
guidance * (1 - alpha_cumprod[t]), capped at 1. The per-step distance
between generated and reference channel statistics makes the convergence,
rescaling, and guidance effects observable without any trained model.

Everything is a pure function of (seed, config): reductions and matrix
products run in fixed order, so reports are bit-identical across runs and
BLAS thread settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import IDENTITY_RESCALE, RescaleParams, _shared_attention
from .errors import InputError
from .normalization import _adain_rows
from .tensorcore import DEFAULT_EPS_STD, _channel_stats, _frozen_f64

SCALED_LINEAR = "scaled_linear"
LINEAR_SCHEDULE = "linear"

#: Guidance values exercised by the sweep mode.
GUIDANCE_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

#: Proportionality constant for the per-step blend strength
#: min(1, _STRENGTH_SCALE * guidance * (1 - alpha_cumprod[t])). At 1/20 the
#: strength stays well below 1 over 50 steps for the whole guidance grid.
#: For seed 7, which the goldens pin, the statistic distance then descends
#: smoothly and its final value falls as guidance rises; neither holds for
#: every seed (for seeds 0-9, six end further from the reference at higher
#: guidance).
_STRENGTH_SCALE = 0.05


@dataclass(frozen=True)
class DdimScheduleConfig:
    beta_start: float = 0.00085
    beta_end: float = 0.012
    beta_schedule: str = SCALED_LINEAR
    steps: int = 50

    def __post_init__(self):
        if not 0.0 < self.beta_start < self.beta_end < 1.0:
            raise InputError(
                f"need 0 < beta_start < beta_end < 1, got {self.beta_start}, {self.beta_end}"
            )
        if self.beta_schedule not in (SCALED_LINEAR, LINEAR_SCHEDULE):
            raise InputError(f"unknown beta_schedule '{self.beta_schedule}'")
        if self.steps < 1:
            raise InputError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class DdimSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_cumprod: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas", _frozen_f64(self.betas, 1, "betas"))
        object.__setattr__(self, "alphas", _frozen_f64(self.alphas, 1, "alphas"))
        object.__setattr__(self, "alpha_cumprod", _frozen_f64(self.alpha_cumprod, 1, "alpha_cumprod"))

    @property
    def steps(self) -> int:
        return self.betas.shape[0]


def build_schedule(cfg: DdimScheduleConfig) -> DdimSchedule:
    """Noise schedule arrays from the scheduler config.

    scaled_linear interpolates in sqrt space: beta_t = (linspace of sqrt
    endpoints)^2. The first/last entries are then pinned to the configured
    values, since sqrt-then-square can drift by an ulp.
    """
    if cfg.steps == 1:
        betas = np.array([cfg.beta_start])
    elif cfg.beta_schedule == SCALED_LINEAR:
        betas = np.linspace(math.sqrt(cfg.beta_start), math.sqrt(cfg.beta_end), cfg.steps) ** 2
        betas[0] = cfg.beta_start
        betas[-1] = cfg.beta_end
    else:
        betas = np.linspace(cfg.beta_start, cfg.beta_end, cfg.steps)
    alphas = 1.0 - betas
    return DdimSchedule(betas=betas, alphas=alphas, alpha_cumprod=np.cumprod(alphas))


@dataclass(frozen=True)
class SandboxConfig:
    guidance_scale: float = 10.0
    seed: int = 7
    n_images: int = 4
    feature_shape: tuple[int, int] = (8, 32)
    schedule: DdimScheduleConfig = DdimScheduleConfig()
    rescale: RescaleParams = IDENTITY_RESCALE

    def __post_init__(self):
        if not self.guidance_scale > 0:
            raise InputError(f"guidance_scale must be > 0, got {self.guidance_scale}")
        if self.seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {self.seed}")
        if self.n_images < 2:
            raise InputError(f"need >= 2 images (one reference), got {self.n_images}")
        c, n = self.feature_shape
        if c < 1 or n < 2:
            raise InputError(f"feature_shape must be at least (1, 2), got {self.feature_shape}")
        object.__setattr__(self, "feature_shape", (int(c), int(n)))


@dataclass(frozen=True)
class SandboxReport:
    initial_stat_distance: float
    per_step_stat_distance: tuple[float, ...]
    final_ref_mass: float
    final_stat_distance: float

    def to_dict(self) -> dict:
        return {
            "initial_stat_distance": self.initial_stat_distance,
            "final_stat_distance": self.final_stat_distance,
            "final_ref_mass": self.final_ref_mass,
            "per_step_stat_distance": list(self.per_step_stat_distance),
        }


def _stat_distance(x: np.ndarray, ref_mean: np.ndarray, ref_std: np.ndarray) -> float:
    """L2 distance between the (mean, std) stat vectors of x and the reference."""
    mean, std = _channel_stats(np.ascontiguousarray(x), DEFAULT_EPS_STD)
    return math.sqrt(float(((mean - ref_mean) ** 2).sum()) + float(((std - ref_std) ** 2).sum()))


def run_sandbox(cfg: SandboxConfig) -> SandboxReport:
    """Run the toy generation loop and report statistic convergence.

    Image 0 is the frozen reference, drawn with distinct per-channel means
    and spreads; the remaining images start as standard normal maps. Each
    step shuffles positions (the fixed seeded "denoiser", which leaves
    channel statistics untouched), applies shared attention against the
    reference, and blends toward the attention output.
    """
    schedule = build_schedule(cfg.schedule)
    c, n = cfg.feature_shape
    rng = np.random.default_rng(cfg.seed)

    ref_mean = rng.uniform(-4.0, 4.0, size=c)
    ref_std = rng.uniform(0.2, 0.6, size=c)
    ref = ref_mean[:, None] + ref_std[:, None] * rng.standard_normal((c, n))
    gens = [rng.standard_normal((c, n)) for _ in range(cfg.n_images - 1)]
    perm = rng.permutation(n)

    # The reference is frozen, so its token stats serve every step's AdaIN;
    # the generated tokens act as Q, K and V at once, so one AdaIN gives
    # both the normalized queries and keys.
    ref_tokens = ref.T
    ref_stats = _channel_stats(ref, DEFAULT_EPS_STD)

    def mean_distance() -> float:
        total = 0.0
        for g in gens:
            total += _stat_distance(g, *ref_stats)
        return total / len(gens)

    initial = mean_distance()
    per_step: list[float] = []
    last_masses = [0.0] * len(gens)
    for t in range(schedule.steps):
        strength = min(
            1.0, _STRENGTH_SCALE * cfg.guidance_scale * (1.0 - float(schedule.alpha_cumprod[t]))
        )
        for i, g in enumerate(gens):
            shuffled = g[:, perm]
            tokens = shuffled.T
            normed = _adain_rows(tokens, *ref_stats, DEFAULT_EPS_STD)
            updated, _, last_masses[i] = _shared_attention(
                normed, normed, tokens, ref_tokens, ref_tokens, cfg.rescale
            )
            gens[i] = (1.0 - strength) * shuffled + strength * updated.T
        per_step.append(mean_distance())

    final_ref_mass = sum(last_masses) / len(last_masses)
    return SandboxReport(
        initial_stat_distance=initial,
        per_step_stat_distance=tuple(per_step),
        final_ref_mass=final_ref_mass,
        final_stat_distance=per_step[-1],
    )
