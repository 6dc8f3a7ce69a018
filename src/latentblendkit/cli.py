"""Command-line surface.

Machine-readable output goes to stdout (or ``--output``); diagnostics go to
stderr. Exit codes are a stable contract: 0 success, 2 input validation,
3 numeric domain error, 4 provider unavailable, 5 provider failure.

At module level this file imports only click and ``errors``: each command
imports the modules it runs in its body, so ``--help`` imports no numpy and
``sandbox`` never loads ``fusion`` or ``metrics``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__
from .errors import (
    BlendKitError,
    InputError,
    NumericDomainError,
    ProviderFailure,
    ProviderUnavailable,
    ZeroVector,
)

if TYPE_CHECKING:
    import numpy as np

    from .fusion import ModalityDescription, QueryCatalog

#: The weight grid used by ``wms --grid`` (two-reference sweeps).
WEIGHT_GRID = (
    (0.0, 1.0),
    (0.15, 0.85),
    (0.25, 0.75),
    (0.5, 0.5),
    (0.75, 0.25),
    (0.85, 0.15),
    (1.0, 0.0),
)


#: A BlendKitError exits with the code of the first class here that it is an
#: instance of; the base class, for input, format and IO problems, is last.
_EXIT_CODES = ((ProviderUnavailable, 4), (ProviderFailure, 5), (NumericDomainError, 3), (BlendKitError, 2))


#: The variables through which a caller sets numpy's BLAS thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _Command(click.Command):
    """A subcommand that imports numpy with one BLAS thread before its body
    runs, unless numpy is loaded already or the caller set a thread count.

    No kernel here gives OpenBLAS's thread pool work (the attention and
    sandbox kernels are einsum and ufunc loops), yet each idle worker spins
    after the import: about 0.13 s of CPU per command on 2 vCPUs (numpy
    2.4, OpenBLAS 0.3.31). The variable is set for the import only, so
    external providers see the caller's environment. Usage errors and
    ``--help`` exit before this runs, and import no numpy.
    """

    def invoke(self, ctx: click.Context):
        if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                import numpy  # noqa: F401
            finally:
                del os.environ["OPENBLAS_NUM_THREADS"]
        return super().invoke(ctx)


class _Cli(click.Group):
    """The command group: a BlendKitError from any command prints
    ``error: ...`` to stderr and exits with its ``_EXIT_CODES`` code."""

    command_class = _Command

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BlendKitError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))


def _emit(doc, output: str | None, fmt: str = "json") -> None:
    """Write a command's output to stdout, or to the file ``output``.

    A ``str`` is written as it is. A list of row dicts becomes RFC 4180 CSV
    with a header and CRLF line ends, or ``{"rows": [...]}`` JSON, as
    ``fmt`` says. Any other value becomes one line of JSON. The output
    always ends in a newline.
    """
    if isinstance(doc, list) and fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(doc[0]), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(doc)
        doc = buf.getvalue()
    elif not isinstance(doc, str):
        doc = json.dumps({"rows": doc} if isinstance(doc, list) else doc)
    if not doc.endswith("\n"):
        doc += "\n"
    if output is None:
        click.echo(doc, nl=False, color=True)  # keep escape codes in the data, as a file does
    else:
        from .formats import write_atomic

        write_atomic(output, doc.encode("utf-8"))


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} '{text}': {exc}") from exc
    if not values:
        raise InputError(f"{what} is empty")
    return values


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
output_option = click.option(
    "--output", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout."
)


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def main():
    """Latent style blending, shared attention, similarity scoring, fusion."""


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Blend spec JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@output_option
def blend(spec_path: str, out_path: str, output: str | None):
    """Blend style vectors per a spec file; print a JSON summary."""
    from .blending import SLI, WeightedStyleSet, linear_blend, sli_blend
    from .formats import load_blend_spec, read_vectors, write_vectors
    from .tensorcore import LatentVector, norm

    spec = load_blend_spec(spec_path)
    vectors = []
    for style in spec.styles:
        loaded = read_vectors(style.path)
        if not isinstance(loaded, LatentVector):
            raise InputError(f"{style.path}: expected a 1-D style vector")
        if spec.method == SLI and norm(loaded) == 0.0:
            raise ZeroVector(f"{style.path}: zero style vector cannot be spherically blended")
        vectors.append(loaded)
    styles = WeightedStyleSet.of(vectors, [s.weight for s in spec.styles])
    try:
        if spec.method == SLI:
            result = sli_blend(styles, spec.eps_omega)
        else:
            result = linear_blend(styles)
        blend_norm = norm(result.vector)
        if blend_norm == math.inf:  # finite entries, but JSON has no inf
            raise NumericDomainError("the blended vector's norm overflowed float64")
    except NumericDomainError as exc:
        paths = ", ".join(s.path for s in spec.styles)
        raise type(exc)(f"{exc} (spec {spec_path}, styles: {paths})") from exc
    write_vectors(out_path, result.vector)
    _emit(
        {
            "method": result.method,
            "order_used": list(result.order_used),
            "omega_trace": list(result.omega_trace),
            "norm": blend_norm,
            "out": out_path,
        },
        output,
    )


def _load_generated(path: str) -> np.ndarray:
    """The embeddings of one --generated path as an (n, d) array: a file's
    rows (a 1-D file is one row), or a directory's .npy files concatenated
    in sorted order."""
    from .formats import load_rows

    p = Path(path)
    files = sorted(p.glob("*.npy")) if p.is_dir() else [p]
    if not files:
        raise InputError(f"{path}: no .npy files in directory")
    return load_rows(files)


@main.command()
@click.option(
    "--generated",
    "generated_paths",
    multiple=True,
    required=True,
    type=click.Path(),
    help="Embedding file/dir; with --grid give 1 (reused) or one per grid row.",
)
@click.option("--refs", "refs_path", required=True, type=click.Path())
@click.option("--ref-names", default=None, help="Comma-separated names for the reference styles.")
@click.option("--weights", default=None, help="Comma-separated weights (one run).")
@click.option("--grid", is_flag=True, help="Evaluate the built-in two-style weight grid.")
@format_option
@output_option
def wms(generated_paths, refs_path, ref_names, weights, grid, fmt, output):
    """Per-style mean similarities and the weighted multi-style score."""
    from .formats import read_vectors
    from .metrics import EmbeddingSet, ReferenceStyle, wms_score
    from .tensorcore import _checked, _Record

    if grid and weights is not None:
        raise InputError("--grid conflicts with --weights")
    refs = read_vectors(refs_path, rows=True)
    if ref_names:
        names = [n.strip() for n in ref_names.split(",")]
        if len(names) != len(refs):
            raise InputError(f"{len(names)} names for {len(refs)} references")
    else:
        names = [f"ref{i + 1}" for i in range(len(refs))]

    if grid:
        if len(refs) != 2:
            raise InputError(f"--grid needs exactly 2 references, got {len(refs)}")
        if len(generated_paths) not in (1, len(WEIGHT_GRID)):
            raise InputError(
                f"--grid takes 1 or {len(WEIGHT_GRID)} --generated paths, got {len(generated_paths)}"
            )
        paths = generated_paths * len(WEIGHT_GRID) if len(generated_paths) == 1 else generated_paths
        configs = [(list(pair), path) for pair, path in zip(WEIGHT_GRID, paths)]
    else:
        if weights is None:
            raise InputError("--weights is required without --grid")
        if len(generated_paths) != 1:
            raise InputError("exactly one --generated path expected without --grid")
        w = _parse_float_list(weights, "--weights")
        if len(w) != len(refs):
            raise InputError(f"{len(w)} weights for {len(refs)} references")
        configs = [(w, generated_paths[0])]

    # Each distinct --generated path is loaded and checked once, into one
    # record that the sets of its rows share: they take its row norms and
    # each MS once. Its matrix is freed before the next path is read.
    rows = [None] * len(configs)
    for gen_path in dict.fromkeys(path for _, path in configs):
        record = _Record(_checked(_load_generated(gen_path), 2, "generated"))
        for i, (w, path) in enumerate(configs):
            if path == gen_path:
                references = tuple(ReferenceStyle(nm, emb, wt) for nm, emb, wt in zip(names, refs, w))
                report = wms_score(EmbeddingSet(generated=record, references=references))
                row = {f"w_{nm}": wt for nm, wt in zip(names, w)}
                row.update((f"MS_{nm}", ms) for nm, ms in report.per_style_ms.items())
                rows[i] = {**row, "WMS": report.wms, "MS_GAP": report.ms_gap}
        del record
    _emit(rows, output, fmt)


@main.command()
@click.option("--self", "self_path", required=True, type=click.Path())
@click.option("--ref", "ref_paths", multiple=True, required=True, type=click.Path())
@click.option("--mu", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--auto-classify", is_flag=True, help="Pick rescale params from the key-norm class.")
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--lambda-weights", default=None, help="Comma list; switches to per-style rescaling.")
@output_option
def attend(self_path, ref_paths, mu, sigma, auto_classify, threshold, lambda_weights, output):
    """Shared or weight-rescaled attention diagnostics as JSON.

    Each file provides a token matrix used as Q, K, and V on its side.
    """
    from .attention import (
        RescaleParams,
        StyleBlock,
        StyleClassifierConfig,
        classify_style,
        lambda_rescaled_attention,
        rescale_params_for,
        row_entropy,
        shared_attention,
    )
    from .formats import load_rows
    from .tensorcore import Matrix, _wrap

    if lambda_weights is not None and (auto_classify or mu is not None or sigma is not None):
        raise InputError("--lambda-weights conflicts with --auto-classify/--mu/--sigma")
    if auto_classify and (mu is not None or sigma is not None):
        raise InputError("--auto-classify conflicts with explicit --mu/--sigma")
    # --threshold keeps its shown default, so whether it was given is asked of click
    threshold_source = click.get_current_context().get_parameter_source("threshold")
    if not auto_classify and threshold_source is not click.core.ParameterSource.DEFAULT:
        raise InputError("--threshold is read only with --auto-classify")
    self_m = _wrap(Matrix, load_rows([self_path]))
    if lambda_weights is not None:
        w = _parse_float_list(lambda_weights, "--lambda-weights")
        if len(w) != len(ref_paths):
            raise InputError(f"{len(w)} lambda weights for {len(ref_paths)} --ref blocks")
        refs = [_wrap(Matrix, load_rows([p])) for p in ref_paths]
        out = lambda_rescaled_attention(self_m, [StyleBlock(k=m, v=m, weight=wt) for m, wt in zip(refs, w)])
        doc = {"mode": "lambda", "lambdas": list(out.lambdas), "block_mass": list(out.block_mass)}
    elif len(ref_paths) != 1:
        raise InputError("exactly one --ref expected without --lambda-weights")
    else:
        ref_m = _wrap(Matrix, load_rows([ref_paths[0]]))
        classification = None
        if auto_classify:
            cfg = StyleClassifierConfig(threshold_t=threshold)
            style = classify_style(ref_m, cfg)
            params = rescale_params_for(style, cfg)
            classification = style.value
        else:
            params = RescaleParams(mu=mu if mu is not None else 0.0, sigma=sigma if sigma is not None else 1.0)
        out = shared_attention(self_m, self_m, self_m, ref_m, ref_m, ref_m, rescale=params)
        doc = {
            "mode": "shared",
            "classification": classification,
            "mu": params.mu,
            "sigma": params.sigma,
            "ref_mass": out.ref_mass,
        }
    doc["row_entropy"] = row_entropy(out.weights)
    _emit(doc, output)


def _describe(item, where: str, path: str, catalog: QueryCatalog) -> tuple[ModalityDescription, dict]:
    """The description of the fuse input entry ``item`` and its --explain note."""
    from .formats import decode
    from .fusion import ModalityDescription, WeatherRecord, _MusicInput, best_music_query, weather_to_text

    match item:
        case {"modality": "music", **fields}:
            best = best_music_query(decode(_MusicInput, fields, where, path).embedding, catalog)
            note = {"modality": "music", "best_query": {"index": best.index, "text": best.text, "score": best.score}}
            return ModalityDescription("music", best.text), note
        case {"modality": "weather", **fields}:
            return weather_to_text(decode(WeatherRecord, fields, where, path)), {"modality": "weather"}
    entry = decode(ModalityDescription, item, where, path)
    return entry, {"modality": entry.modality}


@main.command()
@click.option("--inputs", "inputs_path", required=True, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option(
    "--provider",
    envvar="LBK_PROVIDER",
    default=None,
    help="Paraphrase provider locator (or set LBK_PROVIDER).",
)
@click.option(
    "--provider-kind",
    # fusion.FIXTURE_FILE and EXTERNAL_COMMAND, spelled out so that --help loads no fusion
    type=click.Choice(["fixture_file", "external_command"]),
    default="fixture_file",
    show_default=True,
)
@click.option("--catalog", "catalog_path", default=None, type=click.Path(), help="Music query catalog.")
@click.option("--explain", is_flag=True, help="Emit JSON with per-modality decisions.")
@output_option
def fuse(inputs_path, config_path, provider, provider_kind, catalog_path, explain, output):
    """Fuse modality descriptions into one prompt."""
    from .formats import decode, read_json
    from .fusion import FusionConfig, ProviderBinding, QueryCatalog, default_query_catalog, fuse_with_trace

    kind_source = click.get_current_context().get_parameter_source("provider_kind")
    if not provider and kind_source is not click.core.ParameterSource.DEFAULT:
        raise InputError("--provider-kind is read only with --provider or LBK_PROVIDER")
    raw = read_json(inputs_path, "fusion inputs", expect=list)
    cfg = FusionConfig()
    if config_path is not None:
        cfg = decode(FusionConfig, read_json(config_path, "fusion config"), f"fusion config {config_path}")
    catalog = QueryCatalog.from_json_file(catalog_path) if catalog_path else default_query_catalog()
    binding = ProviderBinding(kind=provider_kind, locator=provider) if provider else None

    descriptions = []
    notes = []
    for i, item in enumerate(raw):
        desc, note = _describe(item, f"fusion inputs {inputs_path}", f"[{i}]", catalog)
        descriptions.append(desc)
        notes.append(note)
    prompt, decisions = fuse_with_trace(descriptions, cfg, binding)
    explained = {"prompt": prompt, "decisions": [note | d._asdict() for note, d in zip(notes, decisions)]}
    _emit(explained if explain else prompt, output)


@main.command()
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--guidance", type=float, default=None, help="Override the guidance scale.")
@click.option("--dump-schedule", is_flag=True, help="Emit the beta/alpha_cumprod table instead.")
@click.option("--guidance-grid", is_flag=True, help="Run once per built-in guidance value.")
@format_option
@output_option
def sandbox(config_path, seed, guidance, dump_schedule, guidance_grid, fmt, output):
    """Deterministic shared-attention generation loop at desk scale."""
    from .formats import decode, read_json
    from .sandbox import GUIDANCE_GRID, SandboxConfig, build_schedule, run_guidance_sweep, run_sandbox

    if guidance_grid and (guidance is not None or dump_schedule):
        raise InputError("--guidance-grid conflicts with --guidance/--dump-schedule")
    if dump_schedule and (seed is not None or guidance is not None):
        raise InputError("--dump-schedule conflicts with --seed/--guidance")
    raw = {} if config_path is None else read_json(config_path, "sandbox config", expect=dict)
    overrides = {"seed": seed, "guidance_scale": guidance}
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    cfg = decode(SandboxConfig, raw, "sandbox config" if config_path is None else f"sandbox config {config_path}")
    if dump_schedule:
        schedule = build_schedule(cfg.schedule)
        columns = zip(schedule.betas.tolist(), schedule.alpha_cumprod.tolist())
        doc = [{"step": t, "beta": beta, "alpha_cumprod": a} for t, (beta, a) in enumerate(columns)]
    elif guidance_grid:
        doc = [
            {
                "guidance": g,
                "initial_stat_distance": report.initial_stat_distance,
                "final_stat_distance": report.final_stat_distance,
                "final_ref_mass": report.final_ref_mass,
            }
            for g, report in zip(GUIDANCE_GRID, run_guidance_sweep(cfg))
        ]
    elif fmt == "json":
        doc = run_sandbox(cfg).to_dict()
    else:
        report = run_sandbox(cfg)
        doc = [
            {"step": t, "stat_distance": d}
            for t, d in enumerate(report.per_step_stat_distance)
        ]
        click.echo(
            f"initial={report.initial_stat_distance} final={report.final_stat_distance} "
            f"ref_mass={report.final_ref_mass}",
            err=True,
        )
    _emit(doc, output, fmt)


@main.command()
@click.option("--which", type=click.Choice(["queries", "prompts"]), default="queries", show_default=True)
@click.option("--path", "catalog_path", default=None, type=click.Path(), help="Load from a file instead.")
@format_option
@output_option
def catalog(which, catalog_path, fmt, output):
    """Dump the shipped (or a given) query/prompt catalog."""
    from .formats import default_prompt_catalog, load_prompt_catalog
    from .fusion import QueryCatalog, default_query_catalog

    if which == "queries":
        cat = QueryCatalog.from_json_file(catalog_path) if catalog_path else default_query_catalog()
        texts = [q.text for q in cat.queries]
    else:
        texts = load_prompt_catalog(catalog_path) if catalog_path else default_prompt_catalog()
    if fmt == "csv":
        doc = [{"index": i, "text": text} for i, text in enumerate(texts)]
    elif which == "queries":
        entries = [
            {"index": i, "text": q.text, "embedding": q.embedding.data.tolist()}
            for i, q in enumerate(cat.queries)
        ]
        doc = {"queries": entries}
    else:
        doc = {"prompts": texts}
    _emit(doc, output, fmt)


if __name__ == "__main__":
    main()
