import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import drmdit
from drmdit import cli as cli_mod
from drmdit import data as data_mod
from drmdit import train as train_mod
from drmdit.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def synth_csv(tmp_path):
    spec = data_mod.SynthSpec(n_normal=300, n_near=40, n_far=40, d=4, seed=2)
    data_mod.save_csv(data_mod.synth_generate(spec), tmp_path / "synth.csv")
    return tmp_path / "synth.csv"


@pytest.fixture()
def trained_checkpoint(runner, synth_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "batch_size": 64, "latent_dim": 2}))
    out = tmp_path / "model.json"
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--out", str(out),
        "--features", _features_json(tmp_path),
    ])
    assert result.exit_code == 0, result.output
    return out


def _features_json(tmp_path):
    p = tmp_path / "features.json"
    if not p.exists():
        p.write_text(json.dumps({"label_column": "label"}))
    return str(p)


def test_synth_command(runner, tmp_path):
    out = tmp_path / "gen.csv"
    result = runner.invoke(main, ["synth", "--seed", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    fm, dropped = data_mod.load_csv(out, label_column="label")
    assert dropped == 0
    assert fm.n_rows == 2500


def test_synth_deterministic(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, ["synth", "--seed", "3", "--out", str(a)]).exit_code == 0
    assert runner.invoke(main, ["synth", "--seed", "3", "--out", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_beats_a_seed_in_the_config_or_spec(runner, synth_csv, tmp_path):
    # was: a "seed" key in --config/--spec beat --seed
    def run(command, flag, doc, *seed):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{command}.out"
        extra = ["--data", str(synth_csv)] if command == "train" else []
        result = runner.invoke(main, [command, *extra, flag, str(path), *seed,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    for command, flag, doc in (
            ("train", "--config", {"epochs": 1, "batch_size": 64, "latent_dim": 2}),
            ("synth", "--spec", {"n_normal": 30, "n_near": 3, "n_far": 3, "d": 3})):
        given = run(command, flag, {**doc, "seed": 5}, "--seed", "7")
        assert given == run(command, flag, doc, "--seed", "7")
        assert given != run(command, flag, doc, "--seed", "5")
        assert run(command, flag, {**doc, "seed": 5}) == run(command, flag, doc, "--seed", "5")
        assert run(command, flag, doc) == run(command, flag, doc, "--seed", "42")


def test_train_writes_checkpoint(trained_checkpoint):
    doc = json.loads(trained_checkpoint.read_text())
    assert doc["format_version"] == 1
    assert "weights" in doc and "robust_stats" in doc
    assert "normalization" in doc


def test_train_missing_data_exits_3(runner, tmp_path):
    result = runner.invoke(main, [
        "train", "--data", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "m.json"),
    ])
    assert result.exit_code == 3


def test_train_bad_config_exits_2(runner, synth_csv, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sigma": -1.0, "epochs": 1}))
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--out", str(tmp_path / "m.json"),
        "--features", _features_json(tmp_path),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("sigma", ["1e-300", "NaN", "Infinity"])
def test_train_unusable_sigma_exits_2(runner, synth_csv, tmp_path, sigma):
    # 1e-300 squares to 0; NaN and Infinity are tokens Python's json accepts
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 1, "sigma": %s}' % sigma)
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--out", str(out), "--features", _features_json(tmp_path),
    ])
    assert result.exit_code == 2, result.output
    assert "sigma" in result.output
    assert not out.exists()


@pytest.mark.parametrize("config", [
    '{"epochs": -1}',  # was exit 0 with an untrained model
    '{"learning_rate": -0.1}',  # was exit 4 after 97 epochs of ascent
    '{"learning_rate": NaN}',
    '{"adam_beta1": 1.0}',  # was exit 4: bias correction divides by 0
    '{"adam_epsilon": 0}',  # was exit 0
    '{"seed": -1}',  # was exit 1 from numpy's generator
    '{"weights": {"alpha": 0, "beta": 0, "gamma": 0}}',  # was exit 0
])
def test_train_out_of_range_config_exits_2(runner, synth_csv, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--out", str(out), "--features", _features_json(tmp_path),
    ])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("config", [
    '{"hidden_dims": [10000000000000]}',  # was exit 1: a bare MemoryError
    '{"latent_dim": 10000000000000}',
    '{"hidden_dims": [10000000000000000000000]}',  # past numpy's largest array
])
def test_train_with_unallocatable_widths_exits_2(runner, synth_csv, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--out", str(out), "--features", _features_json(tmp_path),
    ])
    assert result.exit_code == 2, result.output
    assert "error: layer_dims" in result.output
    assert "cannot be allocated" in result.output
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    '{"n_normal": 10000000000000}',  # was exit 1: a bare "Unable to allocate"
    '{"d": 100000000000000}',  # every array of this width is past 128 TiB
    '{"n_far": 100000000000000000000}',  # past numpy's largest array
])
def test_synth_with_unallocatable_spec_exits_2(runner, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    out = tmp_path / "s.csv"
    result = runner.invoke(main, ["synth", "--spec", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: SynthSpec(")
    assert "cannot be allocated" in result.output
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"epochs": 2, "batch_size": 128, "latent_dim": 3},  # acceptance criterion 9's
    {"epochs": 2, "batch_size": 256, "latent_dim": 10, "hidden_dims": [], "sigma": 0.1},
])
def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, config):
    # the MI's entropy sums are np.sum's, not BLAS dot products; the step's
    # matrix products give the same bits on 1 and 2 BLAS threads at these
    # shapes, but not at batch 1024 and d = 122, where the backward products
    # over the batch are split across threads
    env = dict(os.environ, PYTHONHASHSEED="0")

    def run(args, threads=None):
        if threads:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "drmdit.cli", *map(str, args)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    run(["synth", "--seed", "7", "--out", tmp_path / "bench.csv"])
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    for threads in ("1", "2"):
        run(["train", "--data", tmp_path / "bench.csv", "--config", tmp_path / "cfg.json",
             "--features", _features_json(tmp_path), "--out", tmp_path / f"m{threads}.json"],
            threads)
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_train_with_non_finite_training_scores_exits_4(runner, synth_csv, tmp_path):
    # one step at a learning rate of 1e300 leaves finite weights whose
    # reconstructions overflow; a checkpoint with an Infinity median could
    # not be loaded, so none is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 256, "latent_dim": 2,
                               "learning_rate": 1e300}))
    out = tmp_path / "m.json"
    with np.errstate(over="ignore"):
        result = runner.invoke(main, [
            "train", "--data", str(synth_csv), "--config", str(cfg),
            "--out", str(out), "--features", _features_json(tmp_path),
        ])
    assert result.exit_code == 4, result.output
    assert "training euclidean_recon scores are not finite" in result.output
    assert not out.exists()


def test_train_with_an_overflowing_adam_moment_exits_4(runner, synth_csv, tmp_path):
    # weights of 1e308 make gradients whose squares overflow in ADAM's second
    # moment; the run stops with a named error instead of freezing them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "latent_dim": 2,
                               "weights": {"alpha": 1e308, "beta": 1e308, "gamma": 0}}))
    out = tmp_path / "m.json"
    with np.errstate(over="ignore"):
        result = runner.invoke(main, [
            "train", "--data", str(synth_csv), "--config", str(cfg),
            "--out", str(out), "--features", _features_json(tmp_path),
        ])
    assert result.exit_code == 4, result.output
    assert "non-finite second moment at" in result.output
    assert not out.exists()


def test_train_without_features_takes_the_label_column(runner, synth_csv, tmp_path):
    # synth writes f0..f3,label,tag: label is the label, not a fifth feature
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "latent_dim": 2}))
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", str(cfg), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert "training on 300 normal rows (dropped 80 labeled anomalies)" in result.output
    assert json.loads(out.read_text())["feature_names"] == ["f0", "f1", "f2", "f3"]


def test_train_with_fewer_rows_than_the_batch_size_trains_one_batch(runner, tmp_path):
    # 200 normal rows under the default batch size of 256 train as one batch,
    # as sweep's smaller splits do; the checkpoint keeps the configured size
    flows = tmp_path / "small.csv"
    data_mod.save_csv(data_mod.synth_generate(
        data_mod.SynthSpec(n_normal=200, n_near=0, n_far=0)), flows)
    out = tmp_path / "small.json"
    result = runner.invoke(main, ["train", "--data", str(flows), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["train_config"]["batch_size"] == 256


def _repeat_first_name(csv_path, out):
    """csv_path (synth's f0..f3,label,tag) with its tag column named f0."""
    header, rest = csv_path.read_text().split("\n", 1)
    assert header.endswith(",tag"), header
    out.write_text(header[:-len("tag")] + "f0\n" + rest)
    return str(out)


def test_train_on_a_repeated_header_name_exits_3(runner, synth_csv, tmp_path):
    # was: exit 0, training on five features, the first f0 read twice
    result = runner.invoke(main, [
        "train", "--data", _repeat_first_name(synth_csv, tmp_path / "dup.csv"),
        "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 3, result.output
    assert "['f0'] occur more than once in the header" in result.output


@pytest.mark.parametrize("command, extra", [("score", []), ("eval", ["--labels", "label"])])
def test_score_on_a_repeated_header_name_exits_3(runner, trained_checkpoint, synth_csv,
                                                 tmp_path, command, extra):
    # was: exit 0, reading the checkpoint's f0 from the first of the two
    result = runner.invoke(main, [
        command, "--model", str(trained_checkpoint),
        "--data", _repeat_first_name(synth_csv, tmp_path / "dup.csv"), *extra,
        "--out", str(tmp_path / command)])
    assert result.exit_code == 3, result.output
    assert "['f0'] occur more than once in the header" in result.output


def test_score_shape_mismatched_checkpoint_exits_2(runner, trained_checkpoint,
                                                    synth_csv, tmp_path):
    doc = json.loads(trained_checkpoint.read_text())
    doc["weights"][0] = doc["weights"][0][:-1]  # was a broadcast ValueError, exit 1
    bad = tmp_path / "cut.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, [
        "score", "--model", str(bad), "--data", str(synth_csv),
        "--out", str(tmp_path / "s"),
    ])
    assert result.exit_code == 2, result.output
    assert "malformed checkpoint" in result.output


def test_score_command(runner, trained_checkpoint, synth_csv, tmp_path):
    prefix = tmp_path / "scores"
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--features", _features_json(tmp_path), "--out", str(prefix),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "scores.report.json").read_text())
    assert doc["n_samples"] == 380
    assert (tmp_path / "scores.trace.csv").exists()


def test_eval_command_auto_band(runner, trained_checkpoint, synth_csv, tmp_path):
    prefix = tmp_path / "eval"
    result = runner.invoke(main, [
        "eval", "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--labels", "label", "--out", str(prefix),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "eval.report.json").read_text())
    assert doc["metrics"] is not None
    assert "auc" in doc["metrics"]


def test_eval_explicit_band(runner, trained_checkpoint, synth_csv, tmp_path):
    result = runner.invoke(main, [
        "eval", "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--labels", "label", "--band", "0.1,2.0",
        "--out", str(tmp_path / "e2"),
    ])
    assert result.exit_code == 0, result.output


def test_eval_malformed_band_exits_2(runner, trained_checkpoint, synth_csv, tmp_path):
    result = runner.invoke(main, [
        "eval", "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--labels", "label", "--band", "sideways",
        "--out", str(tmp_path / "e3"),
    ])
    assert result.exit_code == 2


def test_sweep_command(runner, synth_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    cfgless = runner.invoke(main, [
        "sweep", "--data", str(synth_csv), "--features", _features_json(tmp_path),
        "--sigma", "0.1,0.2", "--epochs", "1", "--out", str(out),
    ])
    assert cfgless.exit_code == 0, cfgless.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sigma,alpha,beta,gamma,score"
    assert len(lines) == 3


def _write_flows(path, x, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(x.shape[1])] + ["label"]) + "\n")
        fh.writelines(",".join(map(repr, row)) + f",{label}\n"
                      for row, label in zip(x.tolist(), labels))


def test_sweep_fits_the_rows_train_fits(runner, tmp_path, monkeypatch):
    # ten normal rows about 60 MADs out on one feature: sweep's cells must
    # not see the ones in its training split, as train would not
    rng = np.random.default_rng(58)
    x = rng.standard_normal((400, 3)).round(5)
    labels = np.where(rng.uniform(size=400) < 0.2, "DoS", "BENIGN")
    x[np.flatnonzero(labels == "BENIGN")[:10], 1] = 40.0
    flows = tmp_path / "flows.csv"
    _write_flows(flows, x, labels)
    seen, real_fit = [], train_mod.fit

    def fit(train_data, config):
        seen.append(train_data.features.copy())
        return real_fit(train_data, config)

    monkeypatch.setattr(train_mod, "fit", fit)
    result = runner.invoke(main, [
        "sweep", "--data", str(flows), "--features", _features_json(tmp_path),
        "--sigma", "0.2,0.5", "--epochs", "0", "--seed", "7",
        "--out", str(tmp_path / "sweep.csv"),
    ])
    assert result.exit_code == 0, result.output
    dropped = re.search(r"skew filter dropped (\d+) rows", result.output)
    assert dropped and int(dropped.group(1)) > 0
    dataset = cli_mod._load_dataset(flows, _features_json(tmp_path))
    train_rows, _, _ = data_mod.split_rows(dataset, 0.6, seed=7)
    expected = cli_mod._training_rows(dataset.take(train_rows)).features
    assert len(seen) == 2
    assert all(np.array_equal(rows, expected) for rows in seen)


def test_sweep_with_too_few_normal_training_rows_exits_2(runner, tmp_path):
    # six normal rows in the training split: too few to skew-filter, as in train
    x = np.random.default_rng(59).standard_normal((30, 3)).round(5)
    flows = tmp_path / "flows.csv"
    _write_flows(flows, x, ["BENIGN"] * 10 + ["DoS"] * 20)
    result = runner.invoke(main, [
        "sweep", "--data", str(flows), "--features", _features_json(tmp_path),
        "--sigma", "0.2", "--epochs", "0", "--out", str(tmp_path / "sweep.csv"),
    ])
    assert result.exit_code == 2, result.output
    assert "skew_filter needs >= 10 rows" in result.output


def test_sweep_holds_about_two_copies_of_the_loaded_set(runner, tmp_path):
    # load, take the training and validation rows, drop labeled anomalies,
    # skew-filter and min-max scale in place: at the peak, the loaded matrix
    # and the two splits, about 1.9 copies
    n, d = 30_000, 41
    rng = np.random.default_rng(51)
    x = rng.standard_normal((n, d)).round(5)
    labels = np.where(rng.uniform(size=n) < 0.1, "DoS", "BENIGN")
    lines = [",".join(map(repr, row)) + f",{label}\n"
             for row, label in zip(x.tolist(), labels)]
    (tmp_path / "features.json").write_text(json.dumps({"label_column": "label"}))
    args = {}
    for name, rows in (("warm", lines[:500]), ("flows", lines)):
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
            fh.writelines(rows)
        args[name] = ["sweep", "--data", str(tmp_path / f"{name}.csv"), "--features",
                      str(tmp_path / "features.json"), "--sigma", "0.5",
                      "--epochs", "0", "--out", str(tmp_path / f"{name}.sweep.csv")]
    assert runner.invoke(main, args["warm"]).exit_code == 0  # lazy imports, caches
    tracemalloc.start()
    try:
        result = runner.invoke(main, args["flows"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert peak <= 2.05 * n * d * 8


def test_score_corrupt_checkpoint_exits_2(runner, synth_csv, tmp_path):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"format_version": 99}))
    result = runner.invoke(main, [
        "score", "--model", str(bad), "--data", str(synth_csv),
        "--out", str(tmp_path / "s"),
    ])
    assert result.exit_code == 2


def test_score_without_features_ignores_text_label(runner, trained_checkpoint,
                                                    synth_csv, tmp_path):
    # the checkpoint's feature names pick the columns, so a text label
    # column is never parsed as a feature
    lines = synth_csv.read_text().splitlines()
    header = lines[0].split(",")
    at = header.index("label")
    text_csv = tmp_path / "text_labels.csv"
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[at] = "Benign" if cells[at] == "0" else "Attack"
        rows.append(",".join(cells))
    text_csv.write_text("\n".join(rows) + "\n")
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", str(text_csv),
        "--out", str(tmp_path / "t"),
    ])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "t.report.json").read_text())["n_samples"] == 380


@pytest.mark.parametrize("command", ["score", "eval"])
def test_scoring_a_selection_of_the_wrong_width_exits_2_before_a_row_is_parsed(
        runner, trained_checkpoint, synth_csv, tmp_path, monkeypatch, command):
    # the selection's width is known from the header alone
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"columns": ["f0", "f1"]}))

    def parse(*args):
        raise AssertionError("a row was parsed")

    monkeypatch.setattr(data_mod, "_parse_lines", parse)
    labels = ["--labels", "label"] if command == "eval" else []
    result = runner.invoke(main, [
        command, "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--features", str(two), *labels, "--out", str(tmp_path / "s")])
    assert result.exit_code == 2, result.output
    assert result.output == ("error: the model takes 4 features, the selected "
                             "columns are 2: ['f0', 'f1']\n")


@pytest.mark.parametrize("command, flag, content, code", [
    ("train", "--config", '{"epoch": 2}', 2),
    ("train", "--config", '{"weights": {"delta": 1.0}}', 2),
    ("train", "--config", "[2]", 2),
    ("train", "--config", '{"epochs": ', 2),
    ("score", "--model", '{"format_version": ', 2),
    ("score", "--model", '{"format_version": 1}', 2),
    ("synth", "--spec", '{"n_rows": 10}', 2),
    ("train", "--config", '{"epochs": "2"}', 2),
    ("train", "--config", '{"hidden_dims": "8"}', 2),
    ("train", "--config", '{"batch_size": 2.5}', 2),
    ("train", "--config", '{"batch_size": true}', 2),
    ("train", "--config", '{"sigma": "0.1"}', 2),
    ("train", "--config", '{"weights": {"alpha": "x"}}', 2),
    ("synth", "--spec", '{"rho": null}', 2),
    ("train", "--features", '{"normal_values": "Benign"}', 2),
    ("train", "--features", '{"columns": "f0"}', 2),
    ("train", "--features", '{"label_column": 3}', 2),
    ("score", "--model", None, 3),
    ("train", "--features", None, 3),
])
def test_bad_json_input_exit_codes(runner, synth_csv, tmp_path, command, flag,
                                   content, code):
    path = tmp_path / "input.json"  # content None: the file does not exist
    if content is not None:
        path.write_text(content)
    args = {
        "train": ["train", "--data", str(synth_csv), "--out", str(tmp_path / "m.json")],
        "score": ["score", "--data", str(synth_csv), "--out", str(tmp_path / "s")],
        "synth": ["synth", "--out", str(tmp_path / "g.csv")],
    }[command] + [flag, str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert result.output.startswith("error: ")


def test_score_report_is_a_band_less_summary(runner, trained_checkpoint, synth_csv,
                                             tmp_path):
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", str(synth_csv),
        "--out", str(tmp_path / "s"),
    ])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "s.report.json").read_text())
    assert doc == {"band": None, "metrics": None, "n_samples": 380,
                   "scoring_mode": "robust_md"}
    lines = (tmp_path / "s.trace.csv").read_text().splitlines()
    assert lines[0] == "index,score,transformed_score,prediction,tag"
    assert len(lines) == 381
    assert all(line.endswith(",0,-") for line in lines[1:])


def test_score_dirty_fixture_keeps_the_rows_load_csv_keeps(runner, trained_checkpoint,
                                                           tmp_path):
    fixture = os.path.join(os.path.dirname(__file__), "data", "dirty_flows.csv")
    kept, dropped = data_mod.load_csv(fixture, columns=["f0", "f1", "f2", "f3"])
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", fixture,
        "--out", str(tmp_path / "d"),
    ])
    assert result.exit_code == 0, result.output
    assert f"dropped {dropped} " in result.output
    lines = (tmp_path / "d.trace.csv").read_text().splitlines()
    assert len(lines) == kept.n_rows + 1


def _out_in_missing_dir(tmp_path, name):
    return str(tmp_path / "no-such-dir" / name)


@pytest.mark.parametrize("command", ["train", "score", "eval", "sweep", "synth"])
def test_unwritable_output_exits_3(runner, trained_checkpoint, synth_csv, tmp_path,
                                   command):
    out = _out_in_missing_dir(tmp_path, "out")
    args = {
        "train": ["train", "--data", str(synth_csv), "--features",
                  _features_json(tmp_path), "--out", out],
        "score": ["score", "--model", str(trained_checkpoint), "--data",
                  str(synth_csv), "--out", out],
        "eval": ["eval", "--model", str(trained_checkpoint), "--data",
                 str(synth_csv), "--labels", "label", "--out", out],
        "sweep": ["sweep", "--data", str(synth_csv), "--features",
                  _features_json(tmp_path), "--sigma", "0.2", "--epochs", "1",
                  "--out", out],
        "synth": ["synth", "--out", out],
    }[command]
    if command == "train":
        cfg = tmp_path / "quick.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "latent_dim": 2}))
        args += ["--config", str(cfg)]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "error: cannot write " in result.output
    assert "no-such-dir" in result.output


@pytest.mark.parametrize("name, sigma", [("missing.csv", "-1"), ("synth.csv", "-1"),
                                         ("synth.csv", ",")])
def test_sweep_bad_or_empty_sigma_exits_2_before_the_csv_is_read(
        runner, synth_csv, tmp_path, monkeypatch, name, sigma):
    def load_csv(*args, **kwargs):
        raise AssertionError("the CSV was read")

    monkeypatch.setattr(data_mod, "load_csv", load_csv)
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, [
        "sweep", "--data", str(tmp_path / name), "--sigma", sigma, "--out", str(out),
    ])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and "sigma" in result.output
    assert not out.exists()


def test_sweep_non_numeric_sigma_exits_2(runner, synth_csv, tmp_path):
    result = runner.invoke(main, [
        "sweep", "--data", str(synth_csv), "--sigma", "abc",
        "--out", str(tmp_path / "sweep.csv"),
    ])
    assert result.exit_code == 2, result.output
    assert "--sigma" in result.output


@pytest.mark.parametrize("option", [["--seed", "-1"], ["--epochs", "-1"]])
def test_sweep_out_of_range_seed_or_epochs_exits_2(runner, synth_csv, tmp_path, option):
    # a negative --seed was exit 1 from numpy's generator; both are checked
    # before the CSV is read, so a missing CSV does not hide them
    out = tmp_path / "sweep.csv"
    for data_path in (synth_csv, tmp_path / "missing.csv"):
        result = runner.invoke(main, [
            "sweep", "--data", str(data_path), "--features", _features_json(tmp_path),
            "--sigma", "0.2", *option, "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")
    assert not out.exists()


def test_directory_as_data_exits_3(runner, trained_checkpoint, tmp_path):
    folder = tmp_path / "flows"
    folder.mkdir()
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", str(folder),
        "--out", str(tmp_path / "s"),
    ])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: ") and "flows" in result.output


def test_invalid_utf8_csv_exits_3(runner, trained_checkpoint, tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"f0,f1,f2,f3\n0.1,0.2,0.3,0.4\n\xe9,0.2,0.3,0.4\n")
    result = runner.invoke(main, [
        "score", "--model", str(trained_checkpoint), "--data", str(bad),
        "--out", str(tmp_path / "s"),
    ])
    assert result.exit_code == 3, result.output
    assert "latin1.csv" in result.output


def _edited_checkpoint(checkpoint, tmp_path, edit):
    doc = json.loads(checkpoint.read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as json writes them
    return str(path)


@pytest.mark.parametrize("command", ["score", "eval"])
def test_nan_weight_checkpoint_exits_2(runner, trained_checkpoint, synth_csv, tmp_path,
                                       command):
    # was: score exit 0 with an all-nan trace; eval exit 2 "band edges must be finite"
    def edit(doc):
        doc["weights"][0][0][0] = float("nan")

    model = _edited_checkpoint(trained_checkpoint, tmp_path, edit)
    args = [command, "--model", model, "--data", str(synth_csv), "--out",
            str(tmp_path / "n")]
    if command == "eval":
        args += ["--labels", "label"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "malformed checkpoint" in result.output
    assert not (tmp_path / "n.trace.csv").exists()


def test_infinite_normalization_max_exits_2(runner, trained_checkpoint, synth_csv,
                                            tmp_path):
    # was: exit 0, the feature silently normalized to 0
    def edit(doc):
        doc["normalization"][1][1] = float("inf")

    model = _edited_checkpoint(trained_checkpoint, tmp_path, edit)
    result = runner.invoke(main, ["score", "--model", model, "--data", str(synth_csv),
                                  "--out", str(tmp_path / "i")])
    assert result.exit_code == 2, result.output
    assert "malformed checkpoint" in result.output


def test_feature_names_object_checkpoint_exits_2(runner, trained_checkpoint, synth_csv,
                                                 tmp_path):
    # was: exit 0, scoring the columns the object's keys name
    def edit(doc):
        doc["feature_names"] = {name: i for i, name in enumerate(doc["feature_names"])}

    model = _edited_checkpoint(trained_checkpoint, tmp_path, edit)
    result = runner.invoke(main, ["score", "--model", model, "--data", str(synth_csv),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "malformed checkpoint" in result.output
    assert not (tmp_path / "o.trace.csv").exists()


def test_rows_scoring_non_finite_exit_4(runner, trained_checkpoint, tmp_path):
    # a 1e-300 training span sends 1e10 past the float range; the encoder
    # then meets inf - inf: was exit 0 with a nan trace
    def edit(doc):
        doc["normalization"] = [[0.0, 1e-300]] * 4

    model = _edited_checkpoint(trained_checkpoint, tmp_path, edit)
    path = tmp_path / "far.csv"
    path.write_text("f0,f1,f2,f3\n0,0,0,0\n1e10,1e10,1e10,1e10\n")
    result = runner.invoke(main, ["score", "--model", model, "--data", str(path),
                                  "--out", str(tmp_path / "h")])
    assert result.exit_code == 4, result.output
    assert "1 of 2 robust_md scores are not finite" in result.output


@pytest.mark.parametrize("command", ["score", "eval", "train"])
def test_exit_codes_do_not_depend_on_the_warning_filter(trained_checkpoint, synth_csv,
                                                        tmp_path, command):
    # with numpy's RuntimeWarnings raised as exceptions, the overflowing
    # scores of test_rows_scoring_non_finite_exit_4 and the overflowing ADAM
    # moment of test_train_with_an_overflowing_adam_moment_exits_4 were: exit 1
    # with "error: overflow encountered in ..."
    if command == "train":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "latent_dim": 2,
                                   "weights": {"alpha": 1e308, "beta": 1e308, "gamma": 0}}))
        args = ["train", "--data", synth_csv, "--config", cfg,
                "--features", _features_json(tmp_path), "--out", tmp_path / "result.json"]
        message = "non-finite second moment at"
    else:
        def edit(doc):
            doc["normalization"] = [[0.0, 1e-300]] * 4

        path = tmp_path / "far.csv"
        path.write_text("f0,f1,f2,f3,label\n0,0,0,0,0\n1e10,1e10,1e10,1e10,1\n")
        args = [command, "--model", _edited_checkpoint(trained_checkpoint, tmp_path, edit),
                "--data", path, "--out", tmp_path / "result"]
        args += ["--labels", "label"] if command == "eval" else []
        message = "1 of 2 robust_md scores are not finite"
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-m", "drmdit.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 4, proc.stderr
    assert message in proc.stderr
    assert not list(tmp_path.glob("result*"))


def test_only_the_program_freezes_the_import_heap():
    # the process entry moves the import heap out of the cyclic collector's
    # reach; importing the module, as library callers and click's test runner
    # do, leaves the collector alone
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print(gc.get_freeze_count()))\n"
             "sys.argv = ['drmdit', '--help']\n"
             "runpy.run_module('drmdit.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, drmdit.cli; print(gc.get_freeze_count())"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'drmdit = "drmdit.cli:program"' in pyproject


def test_score_and_eval_write_the_same_score_column(runner, trained_checkpoint, synth_csv,
                                                    tmp_path):
    for command, extra in (("score", []), ("eval", ["--labels", "label"])):
        result = runner.invoke(main, [command, "--model", str(trained_checkpoint),
                                      "--data", str(synth_csv), *extra,
                                      "--out", str(tmp_path / command)])
        assert result.exit_code == 0, result.output
    columns = [[line.split(",")[1]
                for line in (tmp_path / f"{c}.trace.csv").read_text().splitlines()]
               for c in ("score", "eval")]
    assert columns[0] == columns[1]


def test_a_byte_order_mark_is_not_part_of_the_first_column(runner, synth_csv, tmp_path):
    # was: train named the first feature '\ufefff0', and scoring the file
    # with a BOM against a BOM-free checkpoint exited 3, missing ['f0']
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + synth_csv.read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 64, "latent_dim": 2}))
    for name in ("synth", "bom"):
        result = runner.invoke(main, [
            "train", "--data", str(tmp_path / f"{name}.csv"), "--config", str(cfg),
            "--out", str(tmp_path / f"{name}.json")])
        assert result.exit_code == 0, result.output
    trained = (tmp_path / "bom.json").read_bytes()
    assert json.loads(trained)["feature_names"][0] == "f0"
    assert trained == (tmp_path / "synth.json").read_bytes()
    for model, data in (("synth", "bom"), ("bom", "synth")):
        result = runner.invoke(main, [
            "score", "--model", str(tmp_path / f"{model}.json"), "--data",
            str(tmp_path / f"{data}.csv"), "--out", str(tmp_path / f"{data}-scored")])
        assert result.exit_code == 0, result.output
    assert ((tmp_path / "bom-scored.trace.csv").read_bytes()
            == (tmp_path / "synth-scored.trace.csv").read_bytes())


def test_json_inputs_with_a_byte_order_mark(runner, trained_checkpoint, synth_csv, tmp_path):
    # was: exit 2, "is not valid JSON: Unexpected UTF-8 BOM"
    def with_bom(path):
        marked = tmp_path / f"bom-{os.path.basename(path)}"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        return str(marked)

    cfg = tmp_path / "cfg.json"  # written by the trained_checkpoint fixture
    result = runner.invoke(main, [
        "train", "--data", str(synth_csv), "--config", with_bom(cfg),
        "--features", with_bom(_features_json(tmp_path)), "--out", str(tmp_path / "bom.json")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "bom.json").read_bytes() == trained_checkpoint.read_bytes()
    for model, out in ((trained_checkpoint, "plain"), (with_bom(trained_checkpoint), "bom")):
        result = runner.invoke(main, [
            "score", "--model", str(model), "--data", str(synth_csv),
            "--out", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    assert ((tmp_path / "bom.trace.csv").read_bytes()
            == (tmp_path / "plain.trace.csv").read_bytes())


# runs the CLI as python -m drmdit.cli does (no arguments: only imports
# numpy), then reports whether numpy.ma was ever imported
_MA_PROBE = """
import sys
if len(sys.argv) > 1:
    import runpy
    sys.argv[0] = "drmdit"
    try:
        runpy.run_module("drmdit.cli", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import numpy
print("numpy.ma" in sys.modules)
"""


def test_train_and_eval_do_not_import_numpy_ma(synth_csv, tmp_path):
    # np.median and np.unique import numpy.ma (about 15 ms and 1.3 MB);
    # train and eval use neither, so they import it only where importing
    # numpy does (numpy 1.x)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(drmdit.__file__)),
         *filter(None, [env.get("PYTHONPATH")])])

    def imports_numpy_ma(*args):
        proc = subprocess.run([sys.executable, "-c", _MA_PROBE, *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "batch_size": 64, "latent_dim": 2}))
    model = tmp_path / "model.json"
    with_numpy = imports_numpy_ma()
    assert imports_numpy_ma(
        "train", "--data", str(synth_csv), "--config", str(cfg),
        "--features", _features_json(tmp_path), "--out", str(model)) == with_numpy
    assert imports_numpy_ma(
        "eval", "--model", str(model), "--data", str(synth_csv),
        "--labels", "label", "--out", str(tmp_path / "run")) == with_numpy
