"""latentblendkit: weighted multi-reference style blending in latent space.

Spherical and linear latent blending, style-aligned shared attention with
famous-style rescaling, weighted multi-style similarity scoring, multi-modal
prompt fusion, and a deterministic desk-scale generation sandbox.

The package attributes load on first use: importing the package imports no
submodule (so ``lbk --help`` needs no numpy), and the first access of any
exported name imports every submodule below, in order, and binds its exports.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

#: The names each submodule exports, in import order. Emptied once loaded.
_EXPORTS = {
    "attention": (
        "IDENTITY_RESCALE",
        "AttentionInputs",
        "MultiStyleAttentionOutput",
        "RescaleParams",
        "SharedAttentionOutput",
        "StyleBlock",
        "StyleClass",
        "StyleClassifierConfig",
        "attention",
        "classify_style",
        "lambda_rescaled_attention",
        "rescale_params_for",
        "row_entropy",
        "shared_attention",
    ),
    "blending": (
        "DEFAULT_EPS_OMEGA",
        "BlendResult",
        "WeightedStyleSet",
        "chord_and_arc",
        "linear_blend",
        "normalize_weights",
        "slerp_pair",
        "sli_blend",
    ),
    "errors": (
        "AllZeroWeights",
        "AntipodalVectors",
        "BadMagic",
        "BlendKitError",
        "ChannelMismatch",
        "DimensionMismatch",
        "EmptySet",
        "InputError",
        "InvalidShape",
        "IoFailure",
        "NpyFormatError",
        "NumericDomainError",
        "ProviderFailure",
        "ProviderUnavailable",
        "TruncatedPayload",
        "UnsupportedDtype",
        "UnsupportedOrder",
        "UnsupportedVersion",
        "ZeroVector",
    ),
    "formats": (
        "BlendSpec",
        "BlendStyleRef",
        "decode",
        "default_prompt_catalog",
        "load_array",
        "load_blend_spec",
        "load_prompt_catalog",
        "read_vectors",
        "write_vectors",
    ),
    "fusion": (
        "EXTERNAL_COMMAND",
        "FIXTURE_FILE",
        "FusionConfig",
        "FusionDecision",
        "ModalityDescription",
        "ParaphraseParams",
        "ProviderBinding",
        "QueryCatalog",
        "QueryEntry",
        "QueryMatch",
        "WeatherRecord",
        "best_music_query",
        "concatenate_descriptions",
        "default_query_catalog",
        "fuse",
        "fuse_with_trace",
        "needs_paraphrasing",
        "weather_to_text",
    ),
    "metrics": (
        "EmbeddingSet",
        "ReferenceStyle",
        "ScoreDropBound",
        "WmsReport",
        "cosine_similarity",
        "mean_similarity",
        "score_drop_bound",
        "weighted_score",
        "wms_score",
    ),
    "normalization": ("AdainConfig", "adain", "adain_rows"),
    "sandbox": (
        "GUIDANCE_GRID",
        "DdimSchedule",
        "DdimScheduleConfig",
        "SandboxConfig",
        "SandboxReport",
        "build_schedule",
        "run_guidance_sweep",
        "run_sandbox",
    ),
    "tensorcore": (
        "DEFAULT_EPS_STD",
        "ChannelStats",
        "FeatureMap",
        "LatentVector",
        "Matrix",
        "angle_between",
        "channel_stats",
        "dot",
        "norm",
        "softmax_rows",
        "unit",
    ),
}


def _load() -> None:
    """Import every submodule and bind its exports, the first time only."""
    if _EXPORTS:
        namespace = globals()
        for module, names in tuple(_EXPORTS.items()):  # a racing first access may clear it
            loaded = _import_module(f".{module}", __name__)
            namespace.update((n, getattr(loaded, n)) for n in names)
        _EXPORTS.clear()


def __getattr__(name: str):
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())


class _Package(_ModuleType):
    """The package's module type. ``attention`` names the exported function,
    so importing the ``attention`` submodule does not rebind it; the
    submodule stays reachable as ``sys.modules["latentblendkit.attention"]``."""

    def __setattr__(self, name: str, value) -> None:
        if name == "attention" and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
