"""Command-line entry points.

Exit codes: 0 success, 2 parameter error, 3 data error, 4 numeric or
degeneracy error.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import gc
import json
import sys
from dataclasses import dataclass, field, replace

import click
import numpy as np

from . import data as data_mod
from . import detect, train as train_mod
from .errors import DrmditError, ParameterError


def _exit_codes(command):
    """The single funnel to exit codes: an exception ends command with
    "error: ..." and, for a DrmditError, its class's exit_code, or 1 for any
    other exception.

    command runs with numpy's floating-point errors ignored, so a warning
    filter that turns RuntimeWarnings into exceptions cannot change its
    outcome: every output is checked for finiteness by the code that
    writes it, which names the failure."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                return command(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, DrmditError) else 1)
    return run


def _read_json(path, what):
    return {} if path is None else data_mod.read_json(path, what)


@dataclass
class FeatureSpec:
    """The --features JSON object."""

    columns: list[str] | None = None
    label_column: str | None = None
    normal_values: list[str] = field(
        default_factory=lambda: list(data_mod.DEFAULT_NORMAL_VALUES))


def _feature_spec(features_json):
    return data_mod.dataclass_from_dict(
        FeatureSpec, _read_json(features_json, "--features"), "--features")


def _echo_dropped(dropped):
    if dropped:
        click.echo(f"dropped {dropped} unparseable/non-finite rows", err=True)


def _load_dataset(csv_path, features_json=None):
    """Read the whole CSV; --features selects its columns and label."""
    spec = _feature_spec(features_json)
    dataset, dropped = data_mod.load_csv(
        csv_path, label_column=spec.label_column, columns=spec.columns,
        normal_values=tuple(spec.normal_values))
    _echo_dropped(dropped)
    return dataset


def _training_rows(dataset):
    """Keep dataset's normal rows, skew-filter them and min-max scale them,
    all in its one feature array, as train fits them; returns dataset."""
    if dataset.labels is not None:
        normal = dataset.labels == 0
        n_normal = np.count_nonzero(normal)
        click.echo(f"training on {n_normal} normal rows "
                   f"(dropped {dataset.n_rows - n_normal} labeled anomalies)",
                   err=True)
        dataset.keep_rows(normal)
    dataset, dropped, widened = data_mod.skew_filter(dataset)
    note = " (cutoff widened to the 10% cap)" if widened else ""
    click.echo(f"skew filter dropped {dropped} rows{note}", err=True)
    dataset.normalization = data_mod.fit_minmax(dataset)
    data_mod.minmax_rows(dataset.features, dataset.normalization, out=dataset.features)
    return dataset


@contextlib.contextmanager
def _scoring_rows(model, data_path, features_json, label_column=None):
    """Open the CSV for scoring, its rows scaled with the checkpoint's
    min-max record (data.CsvChunks). Its columns are --features' columns,
    else the checkpoint's feature names; --labels takes precedence over
    --features' label_column. A selection of another width than the
    network's input is rejected before any row is parsed. The drop count is
    printed once the rows are scored."""
    spec = _feature_spec(features_json)
    with data_mod.CsvChunks(data_path, label_column=label_column or spec.label_column,
                            columns=spec.columns or model.feature_names,
                            normal_values=tuple(spec.normal_values),
                            normalization=model.normalization) as source:
        width = model.params.layer_dims[0]
        if len(source.feature_names) != width:
            raise ParameterError(
                f"the model takes {width} features, the selected columns are "
                f"{len(source.feature_names)}: {source.feature_names}")
        yield source
    _echo_dropped(source.dropped)


@click.group()
def main():
    """DRMDIT anomaly detector: train, score, eval, sweep, synth."""


@main.command("train")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--features", "features_json", type=click.Path(), default=None,
              help="JSON {columns, label_column, normal_values}")
@click.option("--config", "config_json", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="[default: --config's seed, else 42]")
@_exit_codes
def cli_train(data_path, features_json, config_json, out_path, seed):
    """Train on normal data and write a JSON checkpoint."""
    doc = _read_json(config_json, "--config")
    doc["seed"] = doc.get("seed", 42) if seed is None else seed  # --seed wins
    config = data_mod.dataclass_from_dict(train_mod.TrainConfig, doc, "--config")
    config.validate()  # before the CSV is read
    dataset = _training_rows(_load_dataset(data_path, features_json))
    train_mod.save_checkpoint(train_mod.fit(dataset, config), out_path)
    click.echo(f"wrote {out_path}")


@main.command("score")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--features", "features_json", type=click.Path(), default=None)
@click.option("--mode", type=click.Choice(detect.SCORING_MODES),
              default="robust_md", show_default=True)
@click.option("--out", "out_prefix", required=True)
@_exit_codes
def cli_score(model_path, data_path, features_json, mode, out_prefix):
    """Score data against a checkpoint; write trace and report files."""
    model = train_mod.load_checkpoint(model_path)
    with _scoring_rows(model, data_path, features_json) as rows:
        scores = detect.score(model, rows, mode=mode)
    report = detect.ScoreReport(
        scores=scores, center=detect.fold_center(model, scores, mode), band=None,
        scoring_mode=mode, labels=rows.labels)
    paths = detect.emit_report(report, out_prefix)
    click.echo("wrote " + " and ".join(paths))


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--features", "features_json", type=click.Path(), default=None)
@click.option("--labels", "label_column", required=True,
              help="label column name in the CSV")
@click.option("--mode", type=click.Choice(detect.SCORING_MODES),
              default="robust_md", show_default=True)
@click.option("--band", default="auto", show_default=True,
              help="'auto' or explicit 'low,high'")
@click.option("--out", "out_prefix", required=True)
@_exit_codes
def cli_eval(model_path, data_path, features_json, label_column, mode, band,
             out_prefix):
    """Band-classify labeled data and report metrics."""
    model = train_mod.load_checkpoint(model_path)
    with _scoring_rows(model, data_path, features_json,
                       label_column=label_column) as rows:
        if not rows.labeled:
            raise ParameterError(f"label column {label_column!r} not found")
        if band == "auto":
            band_obj = None
        else:
            try:
                low, high = (float(v) for v in band.split(","))
            except ValueError:
                raise ParameterError(
                    f"--band must be 'auto' or 'low,high', got {band!r}"
                ) from None
            band_obj = detect.ScoreBand(low=low, high=high)
        report = detect.evaluate(model, rows, mode=mode, band=band_obj)
    paths = detect.emit_report(report, out_prefix)
    click.echo(json.dumps(report.metrics, indent=1, sort_keys=True))
    click.echo("wrote " + " and ".join(paths))


@main.command("sweep")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--features", "features_json", type=click.Path(), default=None)
@click.option("--sigma", "sigma_list", default="0.05,0.1,0.15,0.2",
              show_default=True)
@click.option("--epochs", default=10, show_default=True)
@click.option("--seed", default=42, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def cli_sweep(data_path, features_json, sigma_list, epochs, seed, out_path):
    """Grid-search sigma on a labeled CSV."""
    try:
        sigmas = [float(v) for v in sigma_list.split(",") if v]
    except ValueError:
        sigmas = []
    if not sigmas:
        raise ParameterError(
            f"--sigma must be comma-separated numbers, got {sigma_list!r}")
    base = train_mod.TrainConfig(seed=seed, epochs=epochs)
    for sigma in sigmas:  # before the CSV is read
        replace(base, sigma=sigma).validate()
    dataset = _load_dataset(data_path, features_json)
    train_rows, val_rows, _ = data_mod.split_rows(dataset, 0.6, seed=seed)
    trainset, valset = dataset.take(train_rows), dataset.take(val_rows)
    del dataset  # freed with the test split, which sweep does not use
    _training_rows(trainset)
    data_mod.minmax_rows(valset.features, trainset.normalization, out=valset.features)
    best, table = train_mod.grid_search(trainset, valset, sigmas, base)
    with data_mod.open_output(out_path) as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["sigma", "alpha", "beta", "gamma", "score"],
            lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
    click.echo(f"best sigma {best.sigma} (alpha={best.weights.alpha}, "
               f"beta={best.weights.beta}); table in {out_path}")


@main.command("synth")
@click.option("--spec", "spec_json", type=click.Path(), default=None,
              help="JSON with SynthSpec fields; defaults used when absent")
@click.option("--seed", type=int, default=None, help="[default: --spec's seed, else 42]")
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def cli_synth(spec_json, seed, out_path):
    """Generate the synthetic near/far benchmark as CSV."""
    doc = _read_json(spec_json, "--spec")
    doc["seed"] = doc.get("seed", 42) if seed is None else seed  # --seed wins
    spec = data_mod.dataclass_from_dict(data_mod.SynthSpec, doc, "--spec")
    dataset = data_mod.synth_generate(spec)
    data_mod.save_csv(dataset, out_path)
    click.echo(f"wrote {out_path} ({dataset.n_rows} rows)")


def program():
    """The process entry point: the CLI over a frozen import heap.

    The objects the imports left behind are moved out of the cyclic
    collector's reach, so neither its passes during the command nor the
    one at interpreter exit walk them. main alone, as click's test runner
    and library callers use it, leaves the collector as it was."""
    gc.freeze()
    main()


if __name__ == "__main__":
    program()
