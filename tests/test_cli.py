import json
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from drmdit import data as data_mod
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


def test_sweep_holds_about_two_copies_of_the_loaded_set(runner, tmp_path):
    # load, take the training and validation rows, drop labeled anomalies
    # and min-max scale both in place: at the peak, the loaded matrix and
    # the two splits, about 1.9 copies
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


def test_sweep_non_numeric_sigma_exits_2(runner, synth_csv, tmp_path):
    result = runner.invoke(main, [
        "sweep", "--data", str(synth_csv), "--sigma", "abc",
        "--out", str(tmp_path / "sweep.csv"),
    ])
    assert result.exit_code == 2, result.output
    assert "--sigma" in result.output


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
        marked.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
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
