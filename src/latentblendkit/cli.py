"""Command-line surface.

Machine-readable output goes to stdout (or ``--output``); diagnostics go to
stderr. Exit codes are a stable contract: 0 success, 2 input validation,
3 numeric domain error, 4 provider unavailable, 5 provider failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .attention import (
    RescaleParams,
    StyleBlock,
    classify_style,
    lambda_rescaled_attention,
    rescale_params_for,
    row_entropy,
    shared_attention,
    StyleClassifierConfig,
)
from .blending import SLI, WeightedStyleSet, linear_blend, sli_blend
from .errors import (
    BlendKitError,
    InputError,
    NumericDomainError,
    ProviderFailure,
    ProviderUnavailable,
    ZeroVector,
)
from .formats import (
    default_prompt_catalog,
    load_array,
    load_blend_spec,
    load_prompt_catalog,
    load_rows,
    read_json,
    read_vectors,
    write_atomic,
    write_vectors,
)
from .fusion import (
    EXTERNAL_COMMAND,
    FIXTURE_FILE,
    FusionConfig,
    ModalityDescription,
    ParaphraseParams,
    ProviderBinding,
    QueryCatalog,
    WeatherRecord,
    best_music_query,
    default_query_catalog,
    fuse_with_trace,
    weather_to_text,
)
from .metrics import EmbeddingSet, ReferenceStyle, _style_means, _weighted_report
from .sandbox import (
    GUIDANCE_GRID,
    DdimScheduleConfig,
    SandboxConfig,
    build_schedule,
    run_guidance_sweep,
    run_sandbox,
)
from .tensorcore import LatentVector, Matrix, norm

EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PROVIDER_UNAVAILABLE = 4
EXIT_PROVIDER_FAILURE = 5

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


@contextmanager
def _exit_codes():
    try:
        yield
    except ProviderUnavailable as exc:
        _die(EXIT_PROVIDER_UNAVAILABLE, exc)
    except ProviderFailure as exc:
        _die(EXIT_PROVIDER_FAILURE, exc)
    except NumericDomainError as exc:
        _die(EXIT_NUMERIC, exc)
    except BlendKitError as exc:  # validation, format, and IO problems
        _die(EXIT_INPUT, exc)


def _die(code: int, exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        write_atomic(output, (text if text.endswith("\n") else text + "\n").encode("utf-8"))


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit_rows(rows: list[dict], fmt: str, output: str | None) -> None:
    _emit(json.dumps({"rows": rows}) if fmt == "json" else _rows_to_csv(rows), output)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} '{text}': {exc}") from exc
    if not values:
        raise InputError(f"{what} is empty")
    return values


def _load_matrix(path: str) -> Matrix:
    arr = load_array(path)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return Matrix(arr)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
output_option = click.option(
    "--output", type=click.Path(dir_okay=False), default=None, help="Write to a file instead of stdout."
)


@click.group()
@click.version_option(version=__version__)
def main():
    """Latent style blending, shared attention, similarity scoring, fusion."""


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Blend spec JSON.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@output_option
def blend(spec_path: str, out_path: str, output: str | None):
    """Blend style vectors per a spec file; print a JSON summary."""
    with _exit_codes():
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
        except NumericDomainError as exc:
            paths = ", ".join(s.path for s in spec.styles)
            raise type(exc)(f"{exc} (spec {spec_path}, styles: {paths})") from exc
        write_vectors(out_path, result.vector)
        _emit(
            json.dumps(
                {
                    "method": result.method,
                    "order_used": list(result.order_used),
                    "omega_trace": list(result.omega_trace),
                    "norm": norm(result.vector),
                    "out": out_path,
                }
            ),
            output,
        )


def _load_generated(path: str) -> np.ndarray:
    """The embeddings of one --generated path as an (n, d) array: a file's
    rows (a 1-D file is one row), or a directory's .npy files concatenated
    in sorted order."""
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
    with _exit_codes():
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
            configs = [
                (list(pair), generated_paths[0] if len(generated_paths) == 1 else generated_paths[i])
                for i, pair in enumerate(WEIGHT_GRID)
            ]
        else:
            if weights is None:
                raise InputError("--weights is required without --grid")
            if len(generated_paths) != 1:
                raise InputError("exactly one --generated path expected without --grid")
            w = _parse_float_list(weights, "--weights")
            if len(w) != len(refs):
                raise InputError(f"{len(w)} weights for {len(refs)} references")
            configs = [(w, generated_paths[0])]

        # MS does not depend on the weights, so each distinct --generated set
        # is loaded, validated and scored once. Its EmbeddingSet checks the
        # first row's weights; the remaining grid rows are built in.
        style_means: dict[str, dict[str, float]] = {}
        rows = []
        for w, gen_path in configs:
            if gen_path not in style_means:
                style_means[gen_path] = _style_means(
                    EmbeddingSet(
                        generated=_load_generated(gen_path),
                        references=tuple(
                            ReferenceStyle(name=nm, embedding=emb, weight=wt)
                            for nm, emb, wt in zip(names, refs, w)
                        ),
                    )
                )
            report = _weighted_report(style_means[gen_path], w)
            row: dict = {}
            for nm, wt in zip(names, w):
                row[f"w_{nm}"] = wt
            for nm in names:
                row[f"MS_{nm}"] = report.per_style_ms[nm]
            row["WMS"] = report.wms
            row["MS_GAP"] = report.ms_gap
            rows.append(row)
        _emit_rows(rows, fmt, output)


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
    with _exit_codes():
        self_m = _load_matrix(self_path)
        if lambda_weights is not None:
            w = _parse_float_list(lambda_weights, "--lambda-weights")
            if len(w) != len(ref_paths):
                raise InputError(f"{len(w)} lambda weights for {len(ref_paths)} --ref blocks")
            blocks = [
                StyleBlock(k=_load_matrix(p), v=_load_matrix(p), weight=wt)
                for p, wt in zip(ref_paths, w)
            ]
            out = lambda_rescaled_attention(self_m, blocks)
            total = sum(w)
            _emit(
                json.dumps(
                    {
                        "mode": "lambda",
                        "lambdas": [wt / total for wt in w],
                        "block_mass": list(out.block_mass),
                        "row_entropy": row_entropy(out.weights),
                    }
                ),
                output,
            )
            return

        if len(ref_paths) != 1:
            raise InputError("exactly one --ref expected without --lambda-weights")
        ref_m = _load_matrix(ref_paths[0])
        classification = None
        if auto_classify:
            if mu is not None or sigma is not None:
                raise InputError("--auto-classify conflicts with explicit --mu/--sigma")
            cfg = StyleClassifierConfig(threshold_t=threshold)
            style = classify_style(ref_m, cfg)
            params = rescale_params_for(style, cfg)
            classification = style.value
        else:
            params = RescaleParams(mu=mu if mu is not None else 0.0, sigma=sigma if sigma is not None else 1.0)
        out = shared_attention(self_m, self_m, self_m, ref_m, ref_m, ref_m, rescale=params)
        _emit(
            json.dumps(
                {
                    "mode": "shared",
                    "classification": classification,
                    "mu": params.mu,
                    "sigma": params.sigma,
                    "ref_mass": out.ref_mass,
                    "row_entropy": row_entropy(out.weights),
                }
            ),
            output,
        )


def _resolve_input(item: dict, index: int, catalog: QueryCatalog) -> tuple[ModalityDescription, dict]:
    if not isinstance(item, dict) or "modality" not in item:
        raise InputError(f"input {index}: each entry needs a 'modality'")
    modality = item["modality"]
    note: dict = {"modality": modality}
    if modality == "music":
        if "embedding" not in item:
            raise InputError(f"input {index}: music entries need an 'embedding'")
        match = best_music_query(LatentVector(item["embedding"]), catalog)
        note["best_query"] = {"index": match.index, "text": match.text, "score": match.score}
        return ModalityDescription.from_text("music", match.text), note
    if modality == "weather":
        try:
            record = WeatherRecord(
                condition=str(item["condition"]),
                temperature_c=float(item["temperature_c"]),
                wind_mps=float(item["wind_mps"]),
            )
        except KeyError as exc:
            raise InputError(f"input {index}: weather entries need {exc}") from exc
        return weather_to_text(record), note
    if "text" not in item:
        raise InputError(f"input {index}: '{modality}' entries need a 'text'")
    return ModalityDescription.from_text(modality, str(item["text"])), note


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
    type=click.Choice([FIXTURE_FILE, EXTERNAL_COMMAND]),
    default=FIXTURE_FILE,
    show_default=True,
)
@click.option("--catalog", "catalog_path", default=None, type=click.Path(), help="Music query catalog.")
@click.option("--explain", is_flag=True, help="Emit JSON with per-modality decisions.")
@output_option
def fuse(inputs_path, config_path, provider, provider_kind, catalog_path, explain, output):
    """Fuse modality descriptions into one prompt."""
    with _exit_codes():
        raw = read_json(inputs_path, "fusion inputs", expect=list)
        cfg = _load_fusion_config(config_path)
        catalog = QueryCatalog.from_json_file(catalog_path) if catalog_path else default_query_catalog()
        binding = ProviderBinding(kind=provider_kind, locator=provider) if provider else None

        descriptions = []
        notes = []
        for i, item in enumerate(raw):
            desc, note = _resolve_input(item, i, catalog)
            descriptions.append(desc)
            notes.append(note)
        prompt, decisions = fuse_with_trace(descriptions, cfg, binding)
        if explain:
            for note, decision in zip(notes, decisions):
                note["paraphrased"] = decision.paraphrased
                note["text_in"] = decision.text_in
                note["text_out"] = decision.text_out
            _emit(json.dumps({"prompt": prompt, "decisions": notes}), output)
        else:
            _emit(prompt, output)


def _load_fusion_config(config_path: str | None) -> FusionConfig:
    if config_path is None:
        return FusionConfig()
    raw = read_json(config_path, "fusion config", expect=dict)
    para = raw.get("paraphrase", {})
    base = FusionConfig()
    defaults = base.paraphrase
    try:
        return FusionConfig(
            verbosity_threshold_k=int(raw.get("verbosity_threshold_k", base.verbosity_threshold_k)),
            paraphrase=ParaphraseParams(
                l_max=int(para.get("l_max", defaults.l_max)),
                l_min=int(para.get("l_min", defaults.l_min)),
                length_penalty=float(para.get("length_penalty", defaults.length_penalty)),
                num_beams=int(para.get("num_beams", defaults.num_beams)),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{config_path}: bad fusion config: {exc}") from exc


def _load_sandbox_config(config_path: str | None, seed: int | None, guidance: float | None) -> SandboxConfig:
    raw = {} if config_path is None else read_json(config_path, "sandbox config", expect=dict)
    sched_raw = raw.get("schedule", {})
    sched_defaults = DdimScheduleConfig()
    rescale_raw = raw.get("rescale", {})
    base = SandboxConfig()
    try:
        cfg = SandboxConfig(
            guidance_scale=float(raw.get("guidance_scale", base.guidance_scale)),
            seed=int(raw.get("seed", base.seed)),
            n_images=int(raw.get("n_images", base.n_images)),
            feature_shape=tuple(raw.get("feature_shape", base.feature_shape)),
            schedule=DdimScheduleConfig(
                beta_start=float(sched_raw.get("beta_start", sched_defaults.beta_start)),
                beta_end=float(sched_raw.get("beta_end", sched_defaults.beta_end)),
                beta_schedule=str(sched_raw.get("beta_schedule", sched_defaults.beta_schedule)),
                steps=int(sched_raw.get("steps", sched_defaults.steps)),
            ),
            rescale=RescaleParams(
                mu=float(rescale_raw.get("mu", base.rescale.mu)),
                sigma=float(rescale_raw.get("sigma", base.rescale.sigma)),
            ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad sandbox config: {exc}") from exc
    overrides = {"seed": seed, "guidance_scale": guidance}
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


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
    with _exit_codes():
        cfg = _load_sandbox_config(config_path, seed, guidance)
        if dump_schedule:
            schedule = build_schedule(cfg.schedule)
            rows = [
                {
                    "step": t,
                    "beta": float(schedule.betas[t]),
                    "alpha_cumprod": float(schedule.alpha_cumprod[t]),
                }
                for t in range(schedule.steps)
            ]
            _emit_rows(rows, fmt, output)
            return
        if guidance_grid:
            rows = [
                {
                    "guidance": g,
                    "initial_stat_distance": report.initial_stat_distance,
                    "final_stat_distance": report.final_stat_distance,
                    "final_ref_mass": report.final_ref_mass,
                }
                for g, report in zip(GUIDANCE_GRID, run_guidance_sweep(cfg))
            ]
            _emit_rows(rows, fmt, output)
            return
        report = run_sandbox(cfg)
        if fmt == "json":
            _emit(json.dumps(report.to_dict()), output)
        else:
            rows = [
                {"step": t, "stat_distance": d}
                for t, d in enumerate(report.per_step_stat_distance)
            ]
            click.echo(
                f"initial={report.initial_stat_distance} final={report.final_stat_distance} "
                f"ref_mass={report.final_ref_mass}",
                err=True,
            )
            _emit(_rows_to_csv(rows), output)


@main.command()
@click.option("--which", type=click.Choice(["queries", "prompts"]), default="queries", show_default=True)
@click.option("--path", "catalog_path", default=None, type=click.Path(), help="Load from a file instead.")
@format_option
@output_option
def catalog(which, catalog_path, fmt, output):
    """Dump the shipped (or a given) query/prompt catalog."""
    with _exit_codes():
        if which == "queries":
            cat = QueryCatalog.from_json_file(catalog_path) if catalog_path else default_query_catalog()
            if fmt == "json":
                entries = [
                    {"index": i, "text": q.text, "embedding": q.embedding.data.tolist()}
                    for i, q in enumerate(cat.queries)
                ]
                _emit(json.dumps({"queries": entries}), output)
            else:
                rows = [{"index": i, "text": q.text} for i, q in enumerate(cat.queries)]
                _emit(_rows_to_csv(rows), output)
        else:
            prompts = load_prompt_catalog(catalog_path) if catalog_path else default_prompt_catalog()
            if fmt == "json":
                _emit(json.dumps({"prompts": prompts}), output)
            else:
                rows = [{"index": i, "text": p} for i, p in enumerate(prompts)]
                _emit(_rows_to_csv(rows), output)


if __name__ == "__main__":
    main()
