"""latentblendkit: weighted multi-reference style blending in latent space.

Spherical and linear latent blending, style-aligned shared attention with
famous-style rescaling, weighted multi-style similarity scoring, multi-modal
prompt fusion, and a deterministic desk-scale generation sandbox.
"""

from .attention import (
    IDENTITY_RESCALE,
    AttentionInputs,
    MultiStyleAttentionOutput,
    RescaleParams,
    SharedAttentionOutput,
    StyleBlock,
    StyleClass,
    StyleClassifierConfig,
    attention,
    classify_style,
    lambda_rescaled_attention,
    rescale_params_for,
    row_entropy,
    shared_attention,
)
from .blending import (
    DEFAULT_EPS_OMEGA,
    BlendResult,
    WeightedStyleSet,
    chord_and_arc,
    linear_blend,
    normalize_weights,
    slerp_pair,
    sli_blend,
)
from .errors import (
    AllZeroWeights,
    AntipodalVectors,
    BadMagic,
    BlendKitError,
    ChannelMismatch,
    DimensionMismatch,
    EmptySet,
    InputError,
    InvalidShape,
    IoFailure,
    NpyFormatError,
    NumericDomainError,
    ProviderFailure,
    ProviderUnavailable,
    TruncatedPayload,
    UnsupportedDtype,
    UnsupportedOrder,
    UnsupportedVersion,
    ZeroVector,
)
from .formats import (
    BlendSpec,
    BlendStyleRef,
    decode,
    default_prompt_catalog,
    load_array,
    load_blend_spec,
    load_prompt_catalog,
    read_vectors,
    write_vectors,
)
from .fusion import (
    EXTERNAL_COMMAND,
    FIXTURE_FILE,
    FusionConfig,
    FusionDecision,
    ModalityDescription,
    ParaphraseParams,
    ProviderBinding,
    QueryCatalog,
    QueryEntry,
    QueryMatch,
    WeatherRecord,
    best_music_query,
    concatenate_descriptions,
    default_query_catalog,
    fuse,
    fuse_with_trace,
    needs_paraphrasing,
    weather_to_text,
)
from .metrics import (
    EmbeddingSet,
    ReferenceStyle,
    ScoreDropBound,
    WmsReport,
    cosine_similarity,
    mean_similarity,
    score_drop_bound,
    weighted_score,
    wms_score,
)
from .normalization import AdainConfig, adain, adain_rows
from .sandbox import (
    GUIDANCE_GRID,
    DdimSchedule,
    DdimScheduleConfig,
    SandboxConfig,
    SandboxReport,
    build_schedule,
    run_guidance_sweep,
    run_sandbox,
)
from .tensorcore import (
    DEFAULT_EPS_STD,
    ChannelStats,
    FeatureMap,
    LatentVector,
    Matrix,
    angle_between,
    channel_stats,
    dot,
    norm,
    softmax_rows,
    unit,
)

__version__ = "0.1.0"
