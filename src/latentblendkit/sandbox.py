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

Within a step the generated maps are independent: each attends only to the
frozen reference and to itself. So one step function runs them as
C-contiguous (maps, channels, positions) stacks, each map with its own
blend strength. ``run_guidance_sweep`` stacks the
maps of every guidance value, which share the seed and so the reference,
the starting maps and the permutation; ``run_sandbox`` is its
one-guidance case. A stacked report equals the one-map-at-a-time report
bit for bit, because each map gets the same arithmetic in the same order:

- every reduction (channel stats, softmax, reference mass, stat distance)
  runs over the last axis of a C-contiguous array, which numpy sums row by
  row exactly as it sums one row alone;
- the layouts are pinned: ``x[..., perm]`` on a stack is not C-contiguous,
  and ``_adain_rows`` copies the shuffled maps to C order before taking
  their stats; the [reference || self] key and value blocks are built
  C-contiguous (with a column-major value block, 4 of 96 trial configs,
  all with one channel, changed);
- the two einsums run as one 2-D call per map (``tensorcore._per_matrix``);
- per-step means are summed in image order in the calling thread.

Below a work gate (channels * positions**2 per map) one call takes as many
maps as fit in the gate's work, which bounds its memory; the default
sweep's 18 maps are one call. At or above it each map is its own task on a
thread pool of one thread per CPU, capped by the number of maps (numpy's
einsum and ufuncs release the GIL): the per-call overhead a stack saves is
small next to a big map's einsums, so stacking would only serialise maps
the pool runs side by side. Nor would one 3-D einsum over a stack help:
over four stacked (64, 256) maps the logits took 23.5 ms against 16.6 ms
for four 2-D calls.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import IDENTITY_RESCALE, RescaleParams, _shared_attention
from .errors import InputError
from .normalization import _adain_rows
from .tensorcore import DEFAULT_EPS_STD, _channel_stats, _cpu_threads, _frozen_f64

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

#: Per-map attention work, channels * positions**2, from which a step's
#: maps run one per task on a thread pool; below it they run serially with
#: no pool, stacked as many to a call as fit in this much work. Threaded/
#: serial wall-time ratios of 50-step runs, one image per call, measured
#: on 2 vCPUs (median of 7 alternating runs; below 1 the pool wins):
#:
#:     work       shape       x3 images  x4 images  x8 images
#:     8,192      (8, 32)                2.55
#:     65,536     (16, 64)               1.90
#:     131,072    (32, 64)    1.25       1.50       1.38
#:     221,184    (24, 96)    0.97                  1.04
#:     262,144    (16, 128)   0.97       0.87       0.76
#:     524,288    (32, 128)   0.82       0.89       0.72
#:     2,097,152  (32, 256)   0.60       0.61       0.58
#:
#: The gate is the smallest measured size that gained at every image count.
#: As a cap on a serial call's stack it keeps the stacked logits near the
#: 2 MB L2 cache: past it stacks lose, e.g. 7 stacked (1, 300) maps ran 1.54
#: times as long as one map per call, while 7 stacked (8, 32) maps ran in
#: 0.61 of the time.
_THREAD_MIN_WORK = 262_144


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


def _stat_distances(x: np.ndarray, ref_mean: np.ndarray, ref_std: np.ndarray) -> np.ndarray:
    """L2 distance between the (mean, std) stat vectors of each map of a
    C-contiguous (maps, channels, positions) stack and the reference."""
    mean, std = _channel_stats(x, DEFAULT_EPS_STD)
    return np.sqrt(((mean - ref_mean) ** 2).sum(axis=-1) + ((std - ref_std) ** 2).sum(axis=-1))


def _mean(values: list[float]) -> float:
    total = 0.0
    for v in values:  # left to right, in image order
        total += v
    return total / len(values)


def _pool_workers(maps: int, work: int) -> int:
    """Threads for one step's ``maps`` maps of ``work`` each; 0 or 1 means run them serially."""
    return _cpu_threads(maps) if work >= _THREAD_MIN_WORK else 0


def run_sandbox(cfg: SandboxConfig) -> SandboxReport:
    """Run the toy generation loop and report statistic convergence.

    Image 0 is the frozen reference, drawn with distinct per-channel means
    and spreads; the remaining images start as standard normal maps. Each
    step shuffles positions (the fixed seeded "denoiser", which leaves
    channel statistics untouched), applies shared attention against the
    reference, and blends toward the attention output.
    """
    return run_guidance_sweep(cfg, (cfg.guidance_scale,))[0]


def run_guidance_sweep(
    cfg: SandboxConfig, guidances: Sequence[float] = GUIDANCE_GRID
) -> tuple[SandboxReport, ...]:
    """One sandbox report per guidance value, in order; ``cfg.guidance_scale`` is not read.

    Report i is ``run_sandbox(replace(cfg, guidance_scale=guidances[i]))``
    bit for bit. The runs share the seed, so the reference, the starting
    maps and the permutation are drawn once, and each step runs every run's
    maps as one stack, each map with its own blend strength.
    """
    runs = [dataclasses.replace(cfg, guidance_scale=g) for g in guidances]
    if not runs:
        raise InputError("need at least one guidance value")
    schedule = build_schedule(cfg.schedule)
    c, n = cfg.feature_shape
    rng = np.random.default_rng(cfg.seed)

    ref_mean = rng.uniform(-4.0, 4.0, size=c)
    ref_std = rng.uniform(0.2, 0.6, size=c)
    ref = ref_mean[:, None] + ref_std[:, None] * rng.standard_normal((c, n))
    gens = rng.standard_normal((cfg.n_images - 1, c, n))
    perm = rng.permutation(n)

    # The reference is frozen, so its token stats serve every step's AdaIN;
    # the generated tokens act as Q, K and V at once, so one AdaIN gives
    # both the normalized queries and keys.
    ref_tokens = ref.T
    ref_stats = _channel_stats(ref, DEFAULT_EPS_STD)

    def step(x: np.ndarray, strengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(new maps, reference masses, stat distances) of a stack of maps at one step."""
        shuffled = x[..., perm]
        tokens = np.swapaxes(shuffled, -1, -2)
        normed = _adain_rows(tokens, *ref_stats, DEFAULT_EPS_STD)
        updated, _, masses = _shared_attention(normed, normed, tokens, ref_tokens, ref_tokens, cfg.rescale)
        s = strengths[:, None, None]
        new = np.ascontiguousarray((1.0 - s) * shuffled + s * np.swapaxes(updated, -1, -2))
        return new, masses, _stat_distances(new, *ref_stats)

    per_run = len(gens)
    maps = len(runs) * per_run
    initial = _mean(_stat_distances(gens, *ref_stats).tolist())
    work = c * n * n
    per_call = max(1, _THREAD_MIN_WORK // work)
    bounds = range(per_call, maps, per_call)
    # run-major: run r owns maps r*per_run onward. The chunks are views, so
    # the first step frees the starting maps.
    xs = np.split(np.concatenate([gens] * len(runs)), bounds)
    del gens
    per_step: list[list[float]] = [[] for _ in runs]
    workers = _pool_workers(maps, work)
    with ExitStack() as pool_scope:
        step_map = map
        if workers > 1:
            # imported here: concurrent.futures pulls in logging, about 12 ms
            # of every CLI start, and most runs never make a pool
            from concurrent.futures import ThreadPoolExecutor

            step_map = pool_scope.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        for t in range(schedule.steps):
            fade = 1.0 - float(schedule.alpha_cumprod[t])
            strengths = np.repeat([min(1.0, _STRENGTH_SCALE * r.guidance_scale * fade) for r in runs], per_run)
            parts = list(step_map(step, xs, np.split(strengths, bounds)))
            xs = [p[0] for p in parts]
            distances = np.concatenate([p[2] for p in parts]).tolist()
            for r, dists in enumerate(per_step):
                dists.append(_mean(distances[r * per_run : (r + 1) * per_run]))

    masses = np.concatenate([p[1] for p in parts]).tolist()
    return tuple(
        SandboxReport(
            initial_stat_distance=initial,
            per_step_stat_distance=tuple(dists),
            final_ref_mass=sum(masses[r * per_run : (r + 1) * per_run]) / per_run,
            final_stat_distance=dists[-1],
        )
        for r, dists in enumerate(per_step)
    )
