"""score and eval read, normalize and score the CSV one chunk at a time.

Their traces must equal the whole-array path's (load_csv, apply_minmax,
detect.evaluate, emit_report) in every mode: below one scoring block, on
block edges, across chunk edges and dropped rows, for quoted and CRLF
files. A non-finite score in the last block still writes nothing."""
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from drmdit import data, detect, train
from drmdit.cli import main

D = 10  # train-synth's width
BLOCK = detect._SCORE_BLOCK


def _write(path, x, labels, newline="\n", quote_labels=False):
    label = '"{}"' if quote_labels else "{}"
    lines = [",".join([f"f{j}" for j in range(x.shape[1])] + ["label"])]
    lines += [",".join(map(repr, row)) + "," + label.format(lab)
              for row, lab in zip(x.tolist(), labels.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)


def _flows(n, seed, d=D):
    """n rows: normals, and about 10% anomalies pushed off the normal scale."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = (rng.random(n) < 0.1).astype(np.int64)
    x[labels == 1] *= 3.0
    return x, labels


def _train(folder, d):
    x = np.random.default_rng(d).normal(size=(600, d))
    _write(folder / "train.csv", x, np.zeros(600, dtype=np.int64))
    (folder / "cfg.json").write_text(
        json.dumps({"epochs": 2, "batch_size": 128, "latent_dim": 2}))
    result = CliRunner().invoke(main, [
        "train", "--data", str(folder / "train.csv"), "--config",
        str(folder / "cfg.json"), "--out", str(folder / "model.json")])
    assert result.exit_code == 0, result.output
    return folder / "model.json"


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    return _train(tmp_path_factory.mktemp("model"), D)


def _cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _reference_trace(checkpoint, csv_path, mode, prefix):
    """The eval trace of the whole-array path."""
    model = train.load_checkpoint(checkpoint)
    fm, _ = data.load_csv(csv_path, label_column="label", columns=model.feature_names)
    report = detect.evaluate(model, data.apply_minmax(fm, model.normalization), mode=mode)
    return _bytes(detect.emit_report(report, prefix)[1])


def _assert_streaming_matches(checkpoint, csv_path, tmp_path):
    for mode in detect.SCORING_MODES:
        expected = _reference_trace(checkpoint, csv_path, mode, tmp_path / "ref")
        for command in ("eval", "score"):
            extra = ["--labels", "label"] if command == "eval" else []
            result = _cli(command, "--model", checkpoint, "--data", csv_path,
                          "--mode", mode, *extra, "--out", tmp_path / command)
            assert result.exit_code == 0, result.output
        assert _bytes(tmp_path / "eval.trace.csv") == expected
        columns = [[line.split(",")[1] for line in _bytes(path).decode().splitlines()]
                   for path in (tmp_path / "score.trace.csv", tmp_path / "eval.trace.csv")]
        assert columns[0] == columns[1]


@pytest.mark.parametrize("chunk_bytes", [data._CHUNK_BYTES, 2000])
@pytest.mark.parametrize("n", [1000, 2 * BLOCK, 2 * BLOCK + 1])
def test_streaming_trace_equals_the_whole_array_trace(checkpoint, tmp_path, n,
                                                      chunk_bytes):
    path = tmp_path / "flows.csv"
    _write(path, *_flows(n, seed=n))
    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes):
        _assert_streaming_matches(checkpoint, path, tmp_path)


def test_a_chunk_of_dropped_rows_keeps_the_trace(checkpoint, tmp_path):
    x, labels = _flows(2 * BLOCK + 1, seed=71)
    x[BLOCK - 30:BLOCK + 90, 2] = np.nan  # more rows than a 2000-byte chunk holds
    path = tmp_path / "holes.csv"
    _write(path, x, labels)
    with mock.patch.object(data, "_CHUNK_BYTES", 2000):
        with data.CsvChunks(path, label_column="label") as source:
            assert 0 in [features.shape[0] for features in source.features]
            assert source.dropped == 120
        _assert_streaming_matches(checkpoint, path, tmp_path)
    result = _cli("score", "--model", checkpoint, "--data", path, "--out", tmp_path / "s")
    assert "dropped 120 " in result.output


@pytest.mark.parametrize("newline, quote_labels", [("\r\n", False), ("\n", True)])
def test_quoted_and_crlf_files_keep_the_trace(checkpoint, tmp_path, newline,
                                              quote_labels):
    path = tmp_path / "flows.csv"
    _write(path, *_flows(BLOCK + 5, seed=72), newline=newline, quote_labels=quote_labels)
    with mock.patch.object(data, "_RULE_ROWS", 100):
        _assert_streaming_matches(checkpoint, path, tmp_path)


@pytest.mark.parametrize("command", ["score", "eval"])
def test_header_only_file_exits_3(checkpoint, tmp_path, command):
    path = tmp_path / "header.csv"
    path.write_text(",".join(f"f{j}" for j in range(D)) + ",label\n")
    extra = ["--labels", "label"] if command == "eval" else []
    result = _cli(command, "--model", checkpoint, "--data", path, *extra,
                  "--out", tmp_path / "h")
    assert result.exit_code == 3, result.output
    assert "no usable rows" in result.output
    assert not list(tmp_path.glob("h.*"))


@pytest.mark.parametrize("command", ["score", "eval"])
def test_non_finite_score_in_the_last_block_exits_4_with_no_outputs(checkpoint,
                                                                    tmp_path, command):
    doc = json.loads(checkpoint.read_text())
    doc["normalization"] = [[0.0, 1e-300]] * D  # 1e10 then overflows the encoder
    model = tmp_path / "tiny-span.json"
    model.write_text(json.dumps(doc))
    n = 2 * BLOCK + 1
    x = np.zeros((n, D))
    x[-1] = 1e10
    path = tmp_path / "far.csv"
    _write(path, x, np.arange(n) % 2)
    extra = ["--labels", "label"] if command == "eval" else []
    result = _cli(command, "--model", model, "--data", path, *extra,
                  "--out", tmp_path / "out")
    assert result.exit_code == 4, result.output
    assert f"1 of {n} robust_md scores are not finite" in result.output
    assert not list(tmp_path.glob("out.*"))


def test_no_unwritten_buffer_row_is_read(checkpoint, tmp_path, monkeypatch):
    x, labels = _flows(2 * BLOCK + 1, seed=73)
    x[::97, 1] = np.inf  # dropped rows: chunks of uneven length
    path = tmp_path / "flows.csv"
    _write(path, x, labels)

    def outputs(tag):
        for mode in detect.SCORING_MODES:
            for command in ("eval", "score"):
                extra = ["--labels", "label"] if command == "eval" else []
                result = _cli(command, "--model", checkpoint, "--data", path, "--mode",
                              mode, *extra, "--out", tmp_path / f"{tag}-{command}-{mode}")
                assert result.exit_code == 0, result.output
        return {p.name.split("-", 1)[1]: _bytes(p) for p in tmp_path.glob(f"{tag}-*")}

    expected = outputs("plain")
    real_empty = np.empty

    def poisoned_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        elif out.dtype.kind in "iu":
            out.fill(-7)
        return out

    monkeypatch.setattr(np, "empty", poisoned_empty)
    with mock.patch.object(data, "_CHUNK_BYTES", 3000):
        assert outputs("poisoned") == expected
    assert len(expected) == 12


def _score_peak(model, path, prefix):
    """The traced peak of `score` on path, and its trace's line count."""
    tracemalloc.start()
    try:
        result = _cli("score", "--model", model, "--data", path, "--out", prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak, _bytes(f"{prefix}.trace.csv").count(b"\n")


@pytest.mark.parametrize("quote_labels", [False, True])
def test_score_peak_memory_is_below_one_input_array(tmp_path, quote_labels):
    n, d = 20000, 41
    model = _train(tmp_path, d)
    path = tmp_path / "flows.csv"
    _write(path, *_flows(n, seed=74, d=d), quote_labels=quote_labels)
    peak, lines = _score_peak(model, path, tmp_path / "s")
    assert lines == n + 1
    assert peak < n * d * 8


def test_score_peak_memory_is_the_same_on_a_dirty_file(tmp_path):
    # 3% dirty rows (a text cell, a row cut inside the features, a NaN, an
    # inf) send every chunk down the irregular path; its kept rows must
    # cost what a clean chunk's do, not a chunk-sized array more
    n, d = 20000, 41
    model = _train(tmp_path, d)
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    _write(clean, *_flows(n, seed=74, d=d))
    lines = clean.read_text().split("\n")
    bad = 1 + np.random.default_rng(77).choice(n, size=3 * n // 100, replace=False)
    for k, i in enumerate(bad.tolist()):
        cells, j = lines[i].split(","), k % (d - 1)
        if k % 4 == 1:
            cells = cells[:j] + [cells[j][:2]]
        else:
            cells[j] = ("tcp", None, "nan", "-inf")[k % 4]
        lines[i] = ",".join(cells)
    dirty.write_text("\n".join(lines))
    clean_peak, clean_lines = _score_peak(model, clean, tmp_path / "clean")
    dirty_peak, dirty_lines = _score_peak(model, dirty, tmp_path / "dirty")
    assert (clean_lines, dirty_lines) == (n + 1, n + 1 - bad.size)
    # measured: 0.72 of the input array clean; dirty 0.83 when the kept
    # rows were copied out of a NaN buffer, 0.72 as views of the records
    assert dirty_peak < 1.05 * clean_peak


def test_score_of_a_chunk_stream_equals_score_of_the_array(checkpoint):
    model = train.load_checkpoint(checkpoint)
    x = np.random.default_rng(75).normal(size=(2 * BLOCK + 7, D))
    rng = np.random.default_rng(76)
    edges = [0, 0, 1, BLOCK - 1, BLOCK, BLOCK, BLOCK + 2, 2 * BLOCK + 6]
    anywhere = rng.integers(0, x.shape[0], size=20).tolist()
    for mode in detect.SCORING_MODES:
        whole = detect.score(model, x, mode=mode)
        for split in (edges, sorted(edges + anywhere), [BLOCK, 2 * BLOCK]):
            chunks = iter(np.split(x, split))
            assert detect.score(model, chunks, mode=mode).tobytes() == whole.tobytes()
