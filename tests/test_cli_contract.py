"""Property tests of the CLI's input contract: whatever the checkpoint,
config or CSV, a command exits 0, 2, 3 or 4 (never 1, an uncaught error),
and the trace of an exit-0 command holds only finite scores."""
import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from drmdit import data as data_mod
from drmdit.cli import main

CONTRACT_EXITS = (0, 2, 3, 4)
NAN, INF = float("nan"), float("inf")
# replacements for one checkpoint value: non-finite, extreme, wrong type
CHECKPOINT_VALUES = [NAN, INF, -INF, 1e308, -1e308, 1e-300, 0, -1, 10**30, True,
                     None, "x", "1.5", [], [1.0], {}, {"a": 1}]
# every TrainConfig field, each with values in and out of its range; none
# large enough to make training slow or its arrays big
CONFIG_VALUES = {
    "sigma": [0.5, 0, -1.0, NAN, INF, 1e-200, 1e200, "x"],
    "batch_size": [40, 0, 1, 2, 3, -5, 1000, 2.5],
    "epochs": [0, 1, 2, -1, True],
    "learning_rate": [1e-3, 0, -1.0, 1e3, 1e200, NAN],
    "adam_beta1": [0.0, 0.9, 1.0, -0.1],
    "adam_beta2": [0.5, 1.0, INF],
    "adam_epsilon": [1e-8, 0.0, INF],
    "seed": [0, 1, -1],
    "ridge_epsilon": [0.0, 1e-6, -1.0, NAN, 1e300],
    "mi_mode": ["ratio", "additive", "other"],
    "latent_dim": [1, 2, 3, 0, -1],
    "hidden_dims": [None, [], [3], [0], [2, 2], "3"],
    "activation": ["tanh", "relu", "sigmoid", "cubic", 3],
    "weights": [{"alpha": 0, "beta": 0, "gamma": 0}, {"alpha": NAN}, {"gamma": 0.0},
                {"beta": 1e300}, {"delta": 1}, [1]],
    "unknown": [1],
}
# every SynthSpec field, each with values in and out of its range,
# non-finite and of the wrong type; counts and d stay small
SPEC_VALUES = {
    "n_normal": [0, 1, 30, -1, 2.5, True, "3", None],
    "n_near": [0, 5, -2, 1.0, False],
    "n_far": [0, 5, -2, NAN, "1"],
    "d": [2, 3, 8, 1, 0, -2, 4.0, True],
    "rho": [0.0, 0.7, -0.7, 1 - 1e-16, 1.0, -1.0, 1.5, NAN, INF, -INF, "0.5"],
    "near_offset": [1.5, 1e-300, 1e300, 1e308, 0, -1.0, NAN, INF, -INF, "x", True],
    "far_offset": [8.0, 1, 1e-300, 1e308, 0.0, -8.0, NAN, INF, -INF, None],
    "seed": [0, 1, 2**70, -1, -2**70, 1.5, NAN, "7"],
    "unknown": [1],
}
CELLS = ["", "x", "nan", "inf", "-inf", "1e400", "1e308", "-1e308", '"1.5"', '"a,b"',
         " 2 ", "1,5", "#", "\x00", "Benign", "\u00a01",
         '"' + "x" * (csv.field_size_limit() + 1) + '"']  # csv.Error: was exit 1


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A labeled synth CSV and the checkpoint document trained on it."""
    root = tmp_path_factory.mktemp("contract")
    spec = data_mod.SynthSpec(n_normal=120, n_near=20, n_far=20, d=4, seed=7)
    data_path = root / "synth.csv"
    data_mod.save_csv(data_mod.synth_generate(spec), data_path)
    config = root / "config.json"
    config.write_text(json.dumps({"epochs": 2, "batch_size": 40, "latent_dim": 2}))
    model = root / "model.json"
    result = CliRunner().invoke(main, ["train", "--data", str(data_path), "--config",
                                       str(config), "--out", str(model)])
    assert result.exit_code == 0, result.output
    return data_path, json.loads(model.read_text())


def _run(args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code in CONTRACT_EXITS, (args, result.output, result.exception)
    return result.exit_code


def _assert_finite_trace(prefix):
    with open(f"{prefix}.trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert math.isfinite(float(row["score"])), row
        assert math.isfinite(float(row["transformed_score"])), row


def _score_and_eval(model, data_path, out):
    """Run score and eval; check each against the contract."""
    for command, extra in (("score", []), ("eval", ["--labels", "label"])):
        prefix = out / command
        if _run([command, "--model", model, "--data", data_path, *extra,
                 "--out", prefix]) == 0:
            _assert_finite_trace(prefix)


@st.composite
def _mutation(draw, doc):
    """A deep copy of doc with one value replaced, cut short or removed."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None
                                                        or draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    action = draw(st.sampled_from(["replace", "replace", "cut", "remove"]))
    if action == "cut" and isinstance(node, list) and node:
        parent[key] = node[:-1]
    elif action == "remove" and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(CHECKPOINT_VALUES))
    return doc


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_keeps_the_exit_contract(base, data):
    data_path, doc = base
    mutated = data.draw(_mutation(doc))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        model = out / "model.json"
        model.write_text(json.dumps(mutated))  # NaN/Infinity tokens included
        _score_and_eval(model, data_path, out)


@settings(max_examples=40, deadline=None)
@given(changes=st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=3, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries(
           {k: st.sampled_from(CONFIG_VALUES[k]) for k in keys})))
def test_mutated_config_keeps_the_exit_contract(base, changes):
    data_path, _ = base
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = out / "config.json"
        config.write_text(json.dumps({"epochs": 2, "batch_size": 40, "latent_dim": 2,
                                      **changes}))
        model = out / "model.json"
        if _run(["train", "--data", data_path, "--config", config, "--out", model]) == 0:
            _score_and_eval(model, data_path, out)


@st.composite
def _csv_text(draw, lines):
    """The CSV's lines with a few cells, fields or lines changed."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(",")
        kind = draw(st.sampled_from(["cell", "cell", "cell", "short", "long", "blank",
                                     "drop", "truncate"]))
        if kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
        elif kind == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        elif kind == "long":
            cells.append(draw(st.sampled_from(CELLS)))
        elif kind == "blank":
            cells = [""]
        elif kind == "truncate":  # the header and a few rows, or the header only
            lines = lines[:draw(st.integers(1, 4))]
            continue
        if kind == "drop":
            del lines[at]
        else:
            lines[at] = ",".join(cells)
        if not lines:
            break
    return "".join(line + "\n" for line in lines)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_csv_keeps_the_exit_contract(base, data):
    data_path, doc = base
    text = data.draw(_csv_text(data_path.read_text(encoding="utf-8").splitlines()))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        model = out / "model.json"
        model.write_text(json.dumps(doc))
        mutated = out / "flows.csv"
        mutated.write_text(text, encoding="utf-8")
        _score_and_eval(model, mutated, out)


@settings(max_examples=60, deadline=None)
@given(changes=st.lists(st.sampled_from(sorted(SPEC_VALUES)), max_size=4, unique=True)
       .flatmap(lambda keys: st.fixed_dictionaries(
           {k: st.sampled_from(SPEC_VALUES[k]) for k in keys})))
def test_mutated_synth_spec_keeps_the_exit_contract(changes):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({"n_normal": 30, "n_near": 5, "n_far": 5, "d": 3,
                                    **changes}))  # NaN/Infinity tokens included
        out = Path(tmp) / "synth.csv"
        if _run(["synth", "--spec", spec, "--out", out]) == 0:
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                features = [v for k, v in row.items() if k not in ("label", "tag")]
                assert all(math.isfinite(float(v)) for v in features), (changes, row)
