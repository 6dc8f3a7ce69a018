"""Desk-scale style-aligned generation loop.

A seeded pseudo-denoiser (a fixed spatial shuffle) stands in for the real
model; what is actually under test is the shared-attention pull: at every
step each generated feature map attends over the frozen reference map and
is blended toward the attention output with a strength proportional to
guidance * (1 - alpha_cumprod[t]), capped at 1. The per-step distance
between generated and reference channel statistics makes the convergence,
rescaling, and guidance effects observable without any trained model.

Everything is a pure function of (seed, config): reductions and matrix
products run in fixed order, and means sum left to right through
``tensorcore._sum``, so reports are bit-identical across runs, BLAS thread
settings and Python versions. They also follow numpy's SIMD dispatch of
``np.exp`` in the softmax, so they are not yet identical across CPUs: with
``NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4`` the default
guidance sweep's final distance at guidance 20 moves by an ulp.

Within a step the generated maps are independent: each attends only to the
frozen reference and to itself. So one step function runs them as
C-contiguous (maps, channels, positions) stacks, each map with its own
blend strength, and no map waits for another map's step: each chunk of
maps is a chain of steps of its own. ``run_guidance_sweep`` takes the
maps of every guidance value, which share the seed and so the reference,
the starting maps and the permutation; ``run_sandbox`` is its
one-guidance case. A stacked report equals the one-map-at-a-time report
bit for bit, because each map gets the same arithmetic in the same order:

- every reduction (channel stats, softmax, reference mass, stat distance)
  runs over the last axis of a C-contiguous array, which numpy sums row by
  row exactly as it sums one row alone;
- the layouts are pinned: the shuffle is ``x.take(perm, axis=-1)``, which
  is C-contiguous, so the stats need no copy (``x[..., perm]`` on a stack
  is not); each chunk of maps keeps C-contiguous [reference || self] key
  and value blocks of (tokens, channels) rows, whose reference halves are
  written once per run and whose self halves each step overwrites: AdaIN's
  output goes straight into the keys and the shuffled maps, transposed,
  into the values (with a column-major value block, 4 of 96 trial
  configs, all with one channel, changed);
- the two einsums run as one 2-D call per map (``tensorcore._per_matrix``),
  each entry summed over the keys left to right. The queries are the self
  keys, so the self logits are symmetric, and from
  ``tensorcore._MIRROR_MIN_ROWS`` positions of two or more channels only
  their upper 64-row tiles are computed and mirrored, a gate set from the
  measured table there. The weighted sum comes out channels first
  (``tensorcore._weighted_channels``, which owns the one-channel case):
  each map's output is a (channels, positions) map, in the same bits as
  the row layout, and for the 18 maps of a default sweep the kernel took
  0.66 of the time of the row layout (``tools/layer_bench.py``, median of
  7 runs);
- the blend scales the attention output by each map's strength in place
  and adds it to the shuffled map scaled by one minus it, the arithmetic
  of ``(1 - s) * x + s * updated``, in the maps' own layout;
- each chunk keeps its stat distances for every step, and once every
  chain has finished, the calling thread sums the per-step means in image
  order.

Each step does only arithmetic that reaches the report: the channel stats
take each map's mean once and hand the centred map to AdaIN, the softmax
runs in place, and the identity rescale is skipped (exact, see
``attention._attend_blocks``).

Below a work gate (channels * positions**2 per map) one chunk takes as many
maps as fit in the gate's work, which bounds its memory, and the calling
thread runs the chunks' steps in step-major order; the default sweep's 18
maps are one chunk. At or above it each map is its own chunk, and the
package's one pool policy, ``tensorcore._map_threads`` (one thread per
CPU, capped by the number of maps), runs the chains (numpy's einsum and
ufuncs release the GIL): each thread takes a chunk from one shared queue,
runs its next step and queues it again at the tail, so the maps advance
through their steps without waiting for each other, and 7 maps on 2
threads cost 3.5 map-steps of wall time per step where a barrier after
every step cost 4. The per-call overhead a stack saves is small next to a
big map's einsums, so stacking would only serialise maps the pool runs
side by side. Nor would one 3-D einsum over a stack help: over four
stacked (64, 256) maps the logits took 23.5 ms against 16.6 ms for four
2-D calls.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import IDENTITY_RESCALE, RescaleParams, _attend_blocks, _mass
from .errors import InputError, NumericDomainError
from .normalization import _adain
from .tensorcore import DEFAULT_EPS_STD, _channel_stats, _Frozen, _frozen_f64, _map_threads, _sum, _weighted_channels

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

#: Per-map attention work, channels * positions**2, from which each map is a
#: chunk of its own and the chunks run on a thread pool; below it they run
#: in the calling thread, stacked as many to a chunk as fit in this much
#: work. Threaded/serial wall-time ratios of 50-step runs, one map per
#: chunk, measured on 2 vCPUs by the table that
#: ``tools/layer_bench.py --gate-table`` prints, when the pool's maps still
#: took the row layout (median of 7 alternating runs; below 1 the pool wins):
#:
#:     work       shape       x3 images  x4 images  x8 images
#:     8,192      (8, 32)     1.98       2.13       1.95
#:     65,536     (16, 64)    1.34       0.95       1.09
#:     131,072    (32, 64)    1.18       0.90       1.24
#:     221,184    (24, 96)    0.85       0.96       0.82
#:     262,144    (16, 128)   0.68       0.80       0.74
#:     524,288    (32, 128)   0.72       0.71       0.72
#:     2,097,152  (32, 256)   0.58       0.57       0.53
#:
#: The gate was set as the smallest measured size that gained at every image
#: count while each step waited for every map. Without that wait (24, 96)
#: gains too, here and in the run before (0.97, 0.90 and 0.91), but cells
#: move by up to 0.3 between runs, no benchmark workload has a shape in
#: [221,184, 262,144), and the gate also caps a serial chunk's stack, whose
#: cost at the shapes it would change has not been measured. As that cap it
#: keeps the stacked logits near the 2 MB L2 cache: past it stacks lose,
#: e.g. 7 stacked (1, 300) maps ran 1.54 times as long as one map per call,
#: while 7 stacked (8, 32) maps ran in 0.61 of the time.
_THREAD_MIN_WORK = 262_144

#: Most array elements a SandboxConfig may ask for, checked before anything
#: is allocated: the maps (n_images * channels * positions), one map's
#: attention logits (positions * 2 * positions) and the schedule (steps).
#: The largest golden or benchmark config, (64, 256) x 8 images at 50
#: steps, asks for 262,194; the cap is over 60 times that.
MAX_ELEMENTS = 1 << 24


@dataclass(frozen=True)
class DdimScheduleConfig:
    beta_start: float = 0.00085
    beta_end: float = 0.012
    beta_schedule: str = SCALED_LINEAR
    steps: int = 50

    #: Keys of older scheduler configs that a config file may hold; they
    #: are accepted and ignored.
    RETIRED_KEYS = frozenset({"clip_sample", "set_alpha_to_one"})

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
class DdimSchedule(_Frozen):
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
        elements = self.n_images * c * n + n * 2 * n + self.schedule.steps
        if elements > MAX_ELEMENTS:
            raise InputError(
                f"n_images, feature_shape and schedule.steps ask for {elements} array elements,"
                f" more than MAX_ELEMENTS = {MAX_ELEMENTS}"
            )


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
    # sqrt(((mean - ref_mean) ** 2).sum(-1) + ((std - ref_std) ** 2).sum(-1)),
    # the same ufuncs in place on the stats, which nothing else holds
    for stat, ref_stat in ((mean, ref_mean), (std, ref_std)):
        stat -= ref_stat
        np.square(stat, out=stat)
    distances = np.add.reduce(mean, axis=-1)
    distances += np.add.reduce(std, axis=-1)
    return np.sqrt(distances, out=distances)


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
    maps and the permutation are drawn once, and every run's maps go
    through one step function, each map with its own blend strength.
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

    # The reference is frozen, so its token stats serve every step's AdaIN
    # and its tokens the reference half of every key and value block.
    ref_stats = _channel_stats(ref, DEFAULT_EPS_STD)

    def blocks(x: np.ndarray) -> np.ndarray:
        """A C-contiguous [reference || self] token block for each map of ``x``, its self half unset."""
        block = np.empty((len(x), 2 * n, c))
        block[:, :n, :] = ref.T
        return block

    def step(
        x: np.ndarray, keys: np.ndarray, values: np.ndarray, strengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(new maps, reference masses, stat distances) of a stack of maps at one step.

        The generated tokens act as Q, K and V at once, so one AdaIN, written
        into the self half of ``keys``, gives both the queries and the keys.
        """
        shuffled = x.take(perm, axis=-1)
        _adain(shuffled, *ref_stats, DEFAULT_EPS_STD, out=keys[:, n:, :].swapaxes(-1, -2))
        values[:, n:, :] = shuffled.swapaxes(-1, -2)
        weights = _attend_blocks(keys, rescaled)
        updated = _weighted_channels(weights, values)
        s = strengths[:, None, None]
        updated *= s
        shuffled *= 1.0 - s
        shuffled += updated
        return shuffled, _mass(weights, 0, n), _stat_distances(shuffled, *ref_stats)

    per_run = len(gens)
    maps = len(runs) * per_run
    initial = _sum(_stat_distances(gens, *ref_stats).tolist()) / per_run
    work = c * n * n
    per_call = max(1, _THREAD_MIN_WORK // work)
    rescaled = ((n, cfg.rescale.sigma, cfg.rescale.mu),)  # the reference key block's transform
    bounds = range(per_call, maps, per_call)
    # run-major: run r owns maps r*per_run onward. The chunks are views, so
    # the first step frees the starting maps.
    xs = np.split(np.concatenate([gens] * len(runs)), bounds)
    del gens
    keys = [blocks(x) for x in xs]
    values = [blocks(x) for x in xs]
    # (steps, maps): each map's blend strength at each step, split by chunk
    fades = 1.0 - schedule.alpha_cumprod
    scales = np.repeat([_STRENGTH_SCALE * r.guidance_scale for r in runs], per_run)
    strengths = np.split(np.minimum(1.0, scales * fades[:, None]), bounds, axis=1)

    # Each chunk is a chain of steps that needs no other chunk's result:
    # whoever pops a chunk runs its next step and queues it again at the
    # tail, so one thread takes the chunks in step-major order and several
    # stay within a step of each other with no barrier between steps.
    queue = deque(range(len(xs)))
    distances: list[list[np.ndarray]] = [[] for _ in xs]  # per chunk, per step
    masses: list[np.ndarray | None] = [None] * len(xs)  # per chunk, of its latest step
    # Steps at which a chain's distances went non-finite (-1 for an error):
    # no chain starts a step past the least of them. list.append is atomic.
    stops: list[int] = []

    def run_chains() -> None:
        # A config whose numbers overflow float64 (say rescale.sigma = 1e308)
        # turns maps to NaN. The per-step means raise on that once the chains
        # are done, so numpy's warnings are off, once per call: a pool
        # thread does not inherit the caller's error state, and per step it
        # costs 2% of a small sweep.
        with np.errstate(all="ignore"):
            try:
                while True:
                    try:
                        i = queue.popleft()
                    except IndexError:  # every chain is done or on another thread
                        return
                    t = len(distances[i])
                    if stops and t > min(stops):
                        continue
                    xs[i], masses[i], d = step(xs[i], keys[i], values[i], strengths[i][t])
                    distances[i].append(d)
                    if not math.isfinite(d.max()):  # max propagates NaN
                        stops.append(t)
                    if t + 1 < schedule.steps:
                        queue.append(i)
            except BaseException:
                stops.append(-1)
                raise

    # At or above the gate one call per map, so the pool has a thread per
    # map up to one per CPU; each call runs chains until it finds the queue
    # empty. An error stops the other threads at their next step.
    _map_threads(lambda _: run_chains(), range(maps if work >= _THREAD_MIN_WORK else 1), stop=lambda: stops.append(-1))

    # Every chain has run every step up to the least stop, so the first
    # non-finite mean, in step and then guidance order, lies at or before it.
    per_step: list[list[float]] = [[] for _ in runs]
    for t in range(min(stops, default=schedule.steps - 1) + 1):
        step_distances = np.concatenate([d[t] for d in distances]).tolist()
        for r, dists in enumerate(per_step):
            dists.append(_sum(step_distances[r * per_run : (r + 1) * per_run]) / per_run)
            if not math.isfinite(dists[-1]):
                raise NumericDomainError(
                    f"sandbox step {t} of {schedule.steps} has a non-finite stat distance ({dists[-1]})"
                    f" at guidance_scale {runs[r].guidance_scale}: the config overflows float64"
                )

    final_masses = np.concatenate(masses).tolist()
    return tuple(
        SandboxReport(
            initial_stat_distance=initial,
            per_step_stat_distance=tuple(dists),
            final_ref_mass=_sum(final_masses[r * per_run : (r + 1) * per_run]) / per_run,
            final_stat_distance=dists[-1],
        )
        for r, dists in enumerate(per_step)
    )
