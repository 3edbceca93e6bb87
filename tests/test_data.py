import csv
import os
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drmdit import data
from drmdit.errors import DataError, ParameterError


def test_load_csv_basic(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (3, 2)
    assert fm.labels is None
    assert dropped == 0
    assert fm.feature_names == ["a", "b"]


def test_load_csv_drops_nan_row(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\nNaN,4\n5,6\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (2, 2)
    assert dropped == 1


def test_load_csv_drops_unparseable_row(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\nx,4\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (1, 2)
    assert dropped == 1


def test_load_csv_drops_row_ending_before_label(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b,label\n1,2,0\n3,4\n5,6,1\n")
    fm, dropped = data.load_csv(p, label_column="label")
    assert fm.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert fm.labels.tolist() == [0, 1]
    assert dropped == 1


def test_load_csv_label_mapping(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,label\n1,BENIGN\n2,DDoS\n3,normal\n")
    fm, _ = data.load_csv(p, label_column="label")
    assert fm.labels.tolist() == [0, 1, 0]
    assert fm.feature_names == ["a"]


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        data.load_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        data.load_csv(empty)
    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("a,b\nx,y\n")
    with pytest.raises(DataError):
        data.load_csv(no_rows)


def test_load_csv_repeated_header_names(tmp_path):
    # was: the second "a" read the first one's values, [1, 1, 100]
    p = tmp_path / "in.csv"
    p.write_text("a,a,b,y\n1,10,100,0\n2,20,200,1\n")
    for kwargs in ({}, {"columns": ["a", "b"]}, {"columns": ["b"], "label_column": "a"}):
        with pytest.raises(DataError, match=r"\['a'\] occur more than once"):
            data.load_csv(p, **kwargs)
    # a repeated name outside the selection, one column selected twice
    fm, _ = data.load_csv(p, columns=["b", "y", "b"])
    assert fm.features.tolist() == [[100.0, 0.0, 100.0], [200.0, 1.0, 200.0]]
    fm, _ = data.load_csv(p, columns=["b"], label_column="y")
    assert fm.features.tolist() == [[100.0], [200.0]] and fm.labels.tolist() == [0, 1]


def _reference_load_csv(path, label_column=None, columns=None,
                        normal_values=data.DEFAULT_NORMAL_VALUES):
    """The row-at-a-time csv.reader loader that load_csv replaces: the
    oracle for its row selection, values, labels and drop count."""
    if not os.path.exists(path):
        raise DataError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (missing header)") from None
        header = [h.strip() for h in header]
        if columns is None:
            feature_names = [h for h in header if h not in (label_column, "tag")]
        else:
            missing = [c for c in columns if c not in header]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            feature_names = list(columns)
        if label_column is not None and label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        feat_idx = [header.index(c) for c in feature_names]
        label_idx = header.index(label_column) if label_column else None

        rows, labels, dropped = [], [], 0
        normal_set = set(normal_values)
        for raw in reader:
            if not raw:
                continue
            try:
                vals = [float(raw[i]) for i in feat_idx]
                label = None if label_idx is None else raw[label_idx].strip()
            except (ValueError, IndexError):
                dropped += 1
                continue
            if not all(np.isfinite(vals)):
                dropped += 1
                continue
            rows.append(vals)
            if label_idx is not None:
                labels.append(0 if label in normal_set else 1)
    if not rows:
        raise DataError(f"{path}: no usable rows")
    return data.FeatureMatrix(
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64) if label_idx is not None else None,
        feature_names=feature_names,
    ), dropped


def _outcome(loader, path, **kwargs):
    try:
        fm, dropped = loader(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the oracle's failures are compared too
        return type(exc), str(exc)
    labels = None if fm.labels is None else fm.labels.tolist()
    return fm.features, labels, fm.feature_names, dropped


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "x", "", " 1 ", "#",
                     "2#3", "1_000", "0x10", "\u0661", "\u00a02", "1\x1c", "1 2",
                     # the text-cell scan: alien letters, float letters only
                     "tcp", "Infinity", "nAn", "1E-3", "fan"]),
)
_LABELS = st.sampled_from(["0", "1", "Benign", "Attack", " benign ", "normal ",
                           "x y", "", "BENIGN", "DoS"])
# a text column outside the selection: load_csv never selects "tag"
_TAGS = st.sampled_from(["tcp", "udp", "", "é", "über", "日本語", "ß\u00a0x", "nan"])
_WHITESPACE = st.sampled_from(["  ", "\t", " \t ", "\x0b", "\x0c", "\u00a0", "\u3000"])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_case(draw):
    names = [f"c{j}" for j in range(draw(st.integers(1, 4)))]
    label_column = draw(st.sampled_from([None, "label"]))
    header = list(names)
    for extra in (label_column, draw(st.sampled_from([None, "tag"]))):
        if extra:
            header.insert(draw(st.integers(0, len(header))), extra)
    columns = None
    if draw(st.booleans()):
        # any order, a column more than once, the label column too
        pool = names + [label_column] if label_column else names
        columns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool) + 1))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["clean"] * 6 + ["short", "long", "blank",
                                                      "space", "quoted"]))
        cells = [draw(_LABELS) if h == label_column else draw(_TAGS) if h == "tag"
                 else draw(_CELLS) for h in header]
        if kind == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        elif kind == "long":
            cells += [draw(_CELLS)]
        elif kind == "blank":
            cells = []
        elif kind == "space":
            cells = [draw(_WHITESPACE)]
        elif kind == "quoted":
            at = draw(st.integers(0, len(cells) - 1))
            cells[at] = draw(st.sampled_from(['"1.5"', '"x\ny"', '"3\r\n"', '"a,b"']))
        lines.append(",".join(cells))
    endings = [draw(_ENDINGS) for _ in lines]
    if not draw(st.booleans()):
        endings[-1] = ""  # no newline at the end of the file
    text = "".join(line + end for line, end in zip(lines, endings))
    chunk_bytes = draw(st.sampled_from([1, 7, 40, 1 << 20]))
    return text, label_column, columns, chunk_bytes


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_case())
def test_load_csv_matches_row_reference(tmp_path, case):
    text, label_column, columns, chunk_bytes = case
    path = tmp_path / "case.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected = _outcome(_reference_load_csv, path, label_column=label_column,
                        columns=columns)
    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes):
        got = _outcome(data.load_csv, path, label_column=label_column, columns=columns)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert np.array_equal(got[0], expected[0], equal_nan=True)
        assert got[0].shape == expected[0].shape
        assert got[1:] == expected[1:]


def test_load_csv_dirty_fixture_matches_row_reference():
    # NaN, +-inf, text cells, short rows, a row ending before the label,
    # CRLF and bare-CR endings, '#', and a quoted field holding a newline
    path = os.path.join(os.path.dirname(__file__), "data", "dirty_flows.csv")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    for chunk_bytes in (1, 64, 1 << 20):
        with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes):
            got = _outcome(data.load_csv, path, label_column="label")
        assert np.array_equal(got[0], expected[0])
        assert got[1:] == expected[1:]
    assert got[0].shape[1] == 4 and got[3] == expected[3] > 0


def _flow_lines(rng, n, d, text_every=0, digits=None):
    """n CSV lines of d features and a BENIGN/DoS label; every text_every-th
    line has a "tcp" cell in a feature column."""
    x = rng.normal(size=(n, d))
    if digits is not None:
        x = x.round(digits)
    lines = [",".join(map(repr, row)) for row in x.tolist()]
    for i in range(n):
        if text_every and i % text_every == 3:
            cells = lines[i].split(",")
            cells[i % d] = "tcp"
            lines[i] = ",".join(cells)
        lines[i] += ",BENIGN\n" if i % 4 else ",DoS\n"
    return lines


def _write_flows(path, d, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
        fh.writelines(lines)


def test_load_csv_parses_text_cell_chunks_in_two_numpy_calls(tmp_path):
    # 3 chunks of 200 lines, 20 with a text cell in a feature column; the
    # text label column must not make the other lines suspects
    path = tmp_path / "flows.csv"
    lines = _flow_lines(np.random.default_rng(8), 600, 5, text_every=10)
    _write_flows(path, 5, lines)
    calls = {"loadtxt": 0, "row": 0, "chunks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    chunk_bytes = sum(map(len, lines[:200])) - 1  # readlines stops past the hint
    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(data, "_loadtxt", counted("loadtxt", data._loadtxt)), \
            mock.patch.object(data, "_row_values", counted("row", data._row_values)), \
            mock.patch.object(data, "_parse_lines", counted("chunks", data._parse_lines)):
        got = _outcome(data.load_csv, path, label_column="label")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:] and got[3] == 60
    assert calls["chunks"] == 3
    assert calls["loadtxt"] <= 2 * calls["chunks"]
    assert calls["row"] == 60


def _counted_load_csv(path, chunk_bytes, **kwargs):
    """load_csv's outcome and how often it called the parse steps."""
    calls = {"loadtxt": 0, "suspects": 0, "row": 0, "chunks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(data, "_loadtxt", counted("loadtxt", data._loadtxt)), \
            mock.patch.object(data, "_suspects", counted("suspects", data._suspects)), \
            mock.patch.object(data, "_row_values", counted("row", data._row_values)), \
            mock.patch.object(data, "_parse_lines", counted("chunks", data._parse_lines)):
        return _outcome(data.load_csv, path, **kwargs), calls


def test_load_csv_parses_a_clean_chunk_in_one_numpy_call(tmp_path):
    # a text column outside the selection, non-ASCII included, and a
    # selection in another order than the header's
    rng = np.random.default_rng(11)
    lines = _flow_lines(rng, 600, 5)
    protos = ["tcp", "udp", "ünï"]
    lines = [f"{protos[i % 3]},{line}" for i, line in enumerate(lines)]
    path = tmp_path / "flows.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("proto,f0,f1,f2,f3,f4,label\n")
        fh.writelines(lines)
    columns = ["f2", "f0", "f4", "f1", "f3"]
    chunk_bytes = sum(map(len, lines[:200])) - 1  # readlines stops past the hint
    got, calls = _counted_load_csv(path, chunk_bytes, label_column="label",
                                   columns=columns)
    expected = _outcome(_reference_load_csv, path, label_column="label", columns=columns)
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:] and got[3] == 0
    assert calls == {"loadtxt": 3, "suspects": 0, "row": 0, "chunks": 3}
    # each chunk's features are a view of its records, not a copy
    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes), \
            data.CsvChunks(path, "label", columns) as source:
        assert [features.flags.owndata for features in source.features] == [False] * 3


def test_csv_chunks_lets_go_of_a_chunk_before_it_parses_the_next(tmp_path):
    # each chunk's features are a view of its records: once the caller lets
    # go of them, nothing of the reader holds the records while the next
    # chunk is parsed
    path = tmp_path / "flows.csv"
    lines = _flow_lines(np.random.default_rng(12), 600, 5)
    _write_flows(path, 5, lines)
    alive, previous = [], []
    loadtxt = data._loadtxt

    def spied(lines, record):
        alive.append([ref() is not None for ref in previous])
        records = loadtxt(lines, record)
        previous[:] = [weakref.ref(records)]
        return records

    chunk_bytes = sum(map(len, lines[:200])) - 1  # readlines stops past the hint
    with mock.patch.object(data, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(data, "_loadtxt", spied), \
            data.CsvChunks(path, "label") as source:
        for features in source.features:
            del features
    assert alive == [[], [False], [False]]


def test_load_csv_short_rows_and_text_cells_take_two_numpy_calls(tmp_path):
    lines = _flow_lines(np.random.default_rng(12), 600, 5, text_every=10)
    for i in range(7, 600, 25):  # short rows, apart from the text cells
        lines[i] = ",".join(lines[i].split(",")[:3]) + "\n"
    path = tmp_path / "flows.csv"
    _write_flows(path, 5, lines)
    chunk_bytes = sum(map(len, lines[:200])) - 1
    got, calls = _counted_load_csv(path, chunk_bytes, label_column="label")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:] and got[3] == 60 + 24
    assert calls["chunks"] == 3 and calls["loadtxt"] == 2 * 3
    assert calls["suspects"] == 3 and calls["row"] == 60 + 24


def test_load_csv_rule_rows_rejoin_numpy_rows_in_file_order(tmp_path):
    # one chunk numpy rejects: between clean rows, a text cell, a long row
    # the per-row rule keeps, a NaN row, a short row, a blank line and a
    # second long row
    lines = _flow_lines(np.random.default_rng(15), 12, 5)
    lines[1] = "tcp," + lines[1].split(",", 1)[1]
    lines[4] = lines[4].replace("\n", ",x\n")
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    lines[7] = ",".join(lines[7].split(",")[:3]) + "\n"
    lines[8] = "\n"
    lines[10] = lines[10].replace("\n", ",7\n")
    path = tmp_path / "flows.csv"
    _write_flows(path, 5, lines)
    got, calls = _counted_load_csv(path, 1 << 20, label_column="label")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:] and got[3] == 3
    kept = [0, 2, 3, 4, 6, 9, 10, 11]  # the lines whose rows load_csv keeps
    for row, line in zip(got[0], kept):
        assert row.tolist() == [float(v) for v in lines[line].split(",")[:5]]
    assert [got[1][kept.index(line)] for line in (4, 10)] == [1, 0]  # DoS, BENIGN
    assert calls == {"loadtxt": 2, "suspects": 1, "row": 4, "chunks": 1}


@pytest.mark.parametrize("every_line", [False, True])
@pytest.mark.parametrize("cell", ["1_000", "fan", "\u0661"])
def test_load_csv_cells_numpy_rejects_take_two_numpy_calls(tmp_path, cell, every_line):
    # the letter scan lets these cells through and numpy rejects them; the
    # per-row rule reads the chunk after one more numpy call (was two more
    # calls for one such line, one call per line when every line has one)
    lines = _flow_lines(np.random.default_rng(14), 200, 5)
    for i in range(200) if every_line else [57]:
        cells = lines[i].split(",")
        cells[i % 5] = cell
        lines[i] = ",".join(cells)
    path = tmp_path / "flows.csv"
    _write_flows(path, 5, lines)
    got, calls = _counted_load_csv(path, 1 << 20, label_column="label")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]
    assert calls["chunks"] == 1 and calls["loadtxt"] <= 2 and calls["row"] == 200


def test_load_csv_chunk_of_blank_lines_does_not_make_numpy_warn(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,label\n1,0\n" + "\n" * 40 + "\r\n" * 40 + "2,1\n" + " \n" * 20,
                    newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(data, "_CHUNK_BYTES", 8):
            got = _outcome(data.load_csv, path, label_column="label")
    assert got[1:] == _outcome(_reference_load_csv, path, label_column="label")[1:]
    assert got[0].tolist() == [[1.0], [2.0]] and got[3] == 20


@pytest.mark.parametrize("text_every", [0, 50])
def test_load_csv_peak_memory_is_about_one_output_array(tmp_path, text_every):
    # the kept rows go into one buffer: no per-chunk parts, no concatenate
    n, d = 20000, 41
    path = tmp_path / "flows.csv"
    _write_flows(path, d, _flow_lines(np.random.default_rng(9), n, d, text_every))
    tracemalloc.start()
    try:
        fm, _ = data.load_csv(path, label_column="label")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fm.features.shape[0] == n - (n // 50 if text_every else 0)
    assert peak < 1.8 * n * d * 8


def test_csv_chunks_streams_load_csv_rows_scaled_with_the_record(tmp_path):
    # a dirty labeled file in 2000-byte chunks: text cells, short rows, NaN
    # rows, a blank line and, near the end, a quoted label
    lines = _flow_lines(np.random.default_rng(13), 400, 5, text_every=9)
    for i in range(20, 400, 37):
        lines[i] = ",".join(lines[i].split(",")[:3]) + "\n"
    for i in range(11, 400, 41):
        lines[i] = "nan," + lines[i].split(",", 1)[1]
    lines[150] = "\n"
    lines[380] = lines[380].replace("DoS", '"DoS"').replace("BENIGN", '"BENIGN"')
    path = tmp_path / "flows.csv"
    _write_flows(path, 5, lines)
    with mock.patch.object(data, "_CHUNK_BYTES", 2000):
        fm, dropped = data.load_csv(path, label_column="label")
        record = data.fit_minmax(fm)
        record[1] = (0.5, 0.5)  # a constant training column
        with data.CsvChunks(path, label_column="label", normalization=record) as source:
            n, chunks = 0, 0
            for features in source.features:
                stop = n + features.shape[0]
                assert np.array_equal(features,
                                      data.minmax_rows(fm.features[n:stop], record))
                n, chunks = stop, chunks + 1
    assert n == fm.n_rows and chunks > 10
    assert source.labels.dtype == np.int64 and np.array_equal(source.labels, fm.labels)
    assert source.dropped == dropped == 45 + 11 + 10 - 3  # 3 rows are two of them


def test_load_csv_grows_its_buffer_when_later_lines_are_shorter(tmp_path):
    # the first chunk's long lines make the row estimate too small
    rng = np.random.default_rng(10)
    path = tmp_path / "flows.csv"
    _write_flows(path, 6, _flow_lines(rng, 150, 6) + _flow_lines(rng, 900, 6, 7, digits=1))
    sizes = []
    resize = data._resize

    def recorded(features, size):
        sizes.append((features.shape[0], size))
        resize(features, size)

    with mock.patch.object(data, "_CHUNK_BYTES", 4000), \
            mock.patch.object(data, "_resize", recorded):
        got = _outcome(data.load_csv, path, label_column="label")
    expected = _outcome(_reference_load_csv, path, label_column="label")
    assert any(0 < held < size for held, size in sizes)  # past the first estimate
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]


def test_load_csv_invalid_utf8_is_data_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"a,b\n1,2\n\xe9,4\n")
    with pytest.raises(DataError, match="latin1.csv"):
        data.load_csv(p)


def test_load_csv_field_over_the_csv_limit_is_data_error(tmp_path):
    # csv.reader raises csv.Error past its field size limit: was exit 1
    path = tmp_path / "long.csv"
    path.write_text('c0,label\n1,0\n"' + "x" * (csv.field_size_limit() + 1) + '",1\n')
    with pytest.raises(DataError, match="unreadable CSV"):
        data.load_csv(str(path))


def test_save_csv_roundtrip(tmp_path):
    fm = data.FeatureMatrix(
        features=np.array([[0.1, 0.25], [1.5, -3.75]]),
        labels=np.array([0, 1]),
        feature_names=["a", "b"],
    )
    p = tmp_path / "out.csv"
    data.save_csv(fm, p)
    back, dropped = data.load_csv(p, label_column="label")
    assert dropped == 0
    assert np.array_equal(back.features, fm.features)
    assert np.array_equal(back.labels, fm.labels)


def test_fit_apply_minmax_hand_case():
    fm = data.FeatureMatrix(features=np.array([[2.0], [4.0], [6.0]]))
    record = data.fit_minmax(fm)
    out = data.apply_minmax(fm, record)
    assert np.allclose(out.features.ravel(), [0.0, 0.5, 1.0])


def test_apply_minmax_constant_feature_maps_to_zero():
    fm = data.FeatureMatrix(features=np.full((4, 1), 3.0))
    out = data.apply_minmax(fm, data.fit_minmax(fm))
    assert np.all(out.features == 0.0)


def test_apply_minmax_uses_training_record():
    train = data.FeatureMatrix(features=np.array([[0.0], [10.0]]))
    record = data.fit_minmax(train)
    test = data.FeatureMatrix(features=np.array([[5.0], [20.0]]))
    out = data.apply_minmax(test, record)
    assert np.allclose(out.features.ravel(), [0.5, 2.0])  # out-of-range values extrapolate


def _minmax_by_columns(x, record):
    """The column-subset formula: (x - min) / (max - min) on the non-constant
    columns, 0 elsewhere."""
    lo = np.array([r[0] for r in record])
    span = np.array([r[1] for r in record]) - lo
    out = np.zeros_like(x)
    keep = span > 0
    out[:, keep] = (x[:, keep] - lo[keep]) / span[keep]
    return out


def test_apply_minmax_is_bit_identical_to_the_column_formula():
    rng = np.random.default_rng(61)
    train = rng.normal(size=(50, 7)) * rng.uniform(1e-3, 1e3, size=7)
    train[:, [1, 4]] = [2.5, -0.0]  # constant training columns
    record = data.fit_minmax(data.FeatureMatrix(features=train))
    x = rng.normal(size=(40, 7)) * 1e3  # far outside the training range
    x[0] = -np.abs(x[0])
    before = x.copy()
    out = data.apply_minmax(data.FeatureMatrix(features=x), record)
    assert out.features.tobytes() == _minmax_by_columns(before, record).tobytes()
    assert np.all(out.features[:, [1, 4]] == 0.0)
    assert x.tobytes() == before.tobytes()  # the input is left as it was


def test_apply_minmax_allocates_one_output_array():
    n, d = 20000, 41
    rng = np.random.default_rng(62)
    fm = data.FeatureMatrix(features=rng.normal(size=(n, d)))
    record = [(-1.0, 1.0)] * (d - 3) + [(0.5, 0.5)] * 3
    tracemalloc.start()
    try:
        data.apply_minmax(fm, record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * d * 8


def test_apply_minmax_record_mismatch():
    fm = data.FeatureMatrix(features=np.zeros((2, 2)))
    record = data.fit_minmax(data.FeatureMatrix(features=np.zeros((2, 3))))
    with pytest.raises(ParameterError):
        data.apply_minmax(fm, record)


def test_skew_filter_gaussian_drops_almost_nothing():
    rng = np.random.default_rng(40)
    fm = data.FeatureMatrix(features=rng.standard_normal((20_000, 3)))
    _, dropped, widened = data.skew_filter(fm)
    assert dropped / 20_000 < 0.001
    assert not widened


def test_skew_filter_single_outlier_row():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((200, 2))
    med = np.median(x[:, 0])
    mad = np.median(np.abs(x[:, 0] - med))
    outlier = x[17, 0] = med + 100.0 * mad
    fm = data.FeatureMatrix(features=x)
    out, dropped, _ = data.skew_filter(fm)  # moves the kept rows within x
    assert dropped == 1
    assert out.n_rows == 199
    assert not np.any(np.isclose(out.features[:, 0], outlier))


def test_skew_filter_constant_dataset():
    fm = data.FeatureMatrix(features=np.full((50, 2), 1.0))
    out, dropped, _ = data.skew_filter(fm)
    assert dropped == 0
    assert out.n_rows == 50


def test_skew_filter_drop_cap():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((100, 1))
    x[:40] += 1000.0  # 40% gross outliers; cap limits the drop to 10%
    out, dropped, widened = data.skew_filter(data.FeatureMatrix(features=x))
    assert dropped <= 10
    assert widened


def _reference_skew_keep(x):
    """The kept-row mask of skew_filter as one whole-matrix formula, with
    the widened cutoff read from a full sort."""
    med = np.median(x, axis=0)
    mads = np.maximum(np.median(np.abs(x - med), axis=0), 1e-6)
    exceed = np.max(np.abs(x - med) / mads, axis=1)
    keep = exceed <= data.SKEW_CUTOFF_MADS
    max_drop = int(np.floor(data.MAX_SKEW_DROP_FRACTION * x.shape[0]))
    if (~keep).sum() > max_drop:
        keep = exceed <= np.sort(exceed)[x.shape[0] - max_drop - 1]
    return keep


@pytest.mark.parametrize("n_outliers", [30, 2000])
def test_skew_filter_keeps_the_rows_of_the_whole_matrix_formula(n_outliers):
    # 2000 of 9000 rows far out in one column or another force the 10% cap;
    # the widened cutoff is an order statistic, so partition picks the row
    # that the full sort does
    rng = np.random.default_rng(44)
    x = rng.standard_normal((9000, 6))
    rows = rng.choice(9000, n_outliers, replace=False)
    x[rows, rows % 6] += rng.uniform(10.0, 50.0, n_outliers)
    labels = rng.integers(0, 2, 9000)
    keep = _reference_skew_keep(x)
    expected = x[keep]
    fm = data.FeatureMatrix(features=x, labels=labels)
    out, dropped, widened = data.skew_filter(fm)
    assert widened == (n_outliers == 2000)
    assert dropped == 9000 - keep.sum() == (900 if widened else dropped)
    assert np.array_equal(out.features, expected)
    assert np.array_equal(out.labels, labels[keep])
    assert np.shares_memory(out.features, x)  # filtered in place


def test_keep_rows_matches_take_across_blocks():
    rng = np.random.default_rng(45)
    fm = data.FeatureMatrix(features=rng.standard_normal((3 * data._KEEP_BLOCK + 5, 3)),
                            labels=rng.integers(0, 2, 3 * data._KEEP_BLOCK + 5),
                            tags=np.arange(3 * data._KEEP_BLOCK + 5))
    keep = rng.uniform(size=fm.n_rows) < 0.7
    keep[:data._KEEP_BLOCK] = True  # a first block that stays where it is
    expected = fm.take(np.flatnonzero(keep))
    fm.keep_rows(keep)
    assert np.array_equal(fm.features, expected.features)
    assert np.array_equal(fm.labels, expected.labels)
    assert np.array_equal(fm.tags, expected.tags)


def test_skew_filter_idempotent_on_clean_data():
    rng = np.random.default_rng(43)
    fm = data.FeatureMatrix(features=rng.standard_normal((5000, 2)))
    once, _, _ = data.skew_filter(fm)
    twice, dropped2, _ = data.skew_filter(once)
    assert dropped2 <= max(1, int(0.001 * once.n_rows))


def test_synth_generate_all_normal():
    fm = data.synth_generate(data.SynthSpec(n_normal=50, n_near=0, n_far=0, d=4))
    assert np.all(fm.labels == 0)
    assert fm.features.shape == (50, 4)


def test_synth_generate_deterministic():
    spec = data.SynthSpec(n_normal=100, n_near=20, n_far=20, seed=5)
    a = data.synth_generate(spec)
    b = data.synth_generate(spec)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synth_generate_far_distance_oracle():
    fm = data.synth_generate(data.SynthSpec())
    normals = fm.features[fm.tags == "normal"]
    far = fm.features[fm.tags == "far"]
    centroid = normals.mean(axis=0)
    normal_d = np.linalg.norm(normals - centroid, axis=1)
    far_d = np.linalg.norm(far - centroid, axis=1)
    assert far_d.mean() > 4.0 * np.percentile(normal_d, 99)


def test_synth_generate_near_stays_close():
    fm = data.synth_generate(data.SynthSpec())
    normals = fm.features[fm.tags == "normal"]
    near = fm.features[fm.tags == "near"]
    centroid = normals.mean(axis=0)
    near_d = np.linalg.norm(near - centroid, axis=1)
    # lies near the normal manifold: inside ~1.5x the normals' max distance
    assert near_d.max() < 1.5 * np.linalg.norm(normals - centroid, axis=1).max()


def test_synth_generate_rejects_low_dim():
    with pytest.raises(ParameterError):
        data.synth_generate(data.SynthSpec(d=1))


@pytest.mark.parametrize("change", [
    {"seed": -1},  # was a bare numpy ValueError: exit 1
    {"near_offset": float("nan")},  # was 250 NaN rows
    {"far_offset": float("inf")},
    {"far_offset": 1e308},  # times sqrt(10) overflows
])
def test_synth_spec_negative_seed_or_bad_offset_is_parameter_error(change):
    with pytest.raises(ParameterError):
        data.synth_generate(data.SynthSpec(**change))


def test_split_counts():
    fm = data.FeatureMatrix(features=np.arange(20).reshape(10, 2))
    tr, va, te = map(fm.take, data.split_rows(fm, 0.8, seed=0))
    assert (tr.n_rows, va.n_rows, te.n_rows) == (8, 1, 1)
    all_rows = np.vstack([tr.features, va.features, te.features])
    assert sorted(map(tuple, all_rows)) == sorted(map(tuple, fm.features))


def test_split_stratified_balance():
    labels = np.array([0, 1] * 50)
    fm = data.FeatureMatrix(features=np.arange(200, dtype=float).reshape(100, 2),
                            labels=labels)
    tr, va, te = map(fm.take, data.split_rows(fm, 0.8, seed=1))
    for part in (tr, va, te):
        counts = np.bincount(part.labels, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_split_deterministic():
    fm = data.FeatureMatrix(features=np.random.default_rng(44).normal(size=(30, 2)))
    a = data.split_rows(fm, 0.6, seed=7)
    b = data.split_rows(fm, 0.6, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_insufficient_rows():
    fm = data.FeatureMatrix(features=np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        data.split_rows(fm, 0.9)


def test_dataclass_from_dict_value_types():
    from drmdit.train import TrainConfig

    cfg = data.dataclass_from_dict(
        TrainConfig, {"sigma": 1, "hidden_dims": None, "weights": {"alpha": 2}}, "cfg")
    assert cfg.sigma == 1 and cfg.hidden_dims is None and cfg.weights.alpha == 2
    assert data.dataclass_from_dict(TrainConfig, {"hidden_dims": [6, 4]}, "cfg").hidden_dims == [6, 4]
    for bad in ({"epochs": True}, {"latent_dim": 3.0}, {"hidden_dims": [6, "4"]},
                {"mi_mode": 1}, {"learning_rate": None}):
        with pytest.raises(ParameterError):
            data.dataclass_from_dict(TrainConfig, bad, "cfg")
