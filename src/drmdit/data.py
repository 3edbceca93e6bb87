"""Dataset and JSON-input ingestion, normalization, skew filtering, splits,
and the synthetic near/far anomaly generator.

CSV handling is deliberately strict: header required, selected columns must
parse as floats, rows that are too short or hold non-finite values are
dropped (and counted), and row order is preserved so score traces line up
with source rows.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import itertools
import json
import math
import os
import string
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError, ParameterError
from .robust import median_mad

SKEW_CUTOFF_MADS = 6.0  # about 4 sigma for Gaussian columns
MAX_SKEW_DROP_FRACTION = 0.10
DEFAULT_NORMAL_VALUES = ("Benign", "BENIGN", "benign", "normal", "Normal", "0")
_KEEP_BLOCK = 256  # rows _to_front moves at a time: 84 kB at d=41


@dataclass
class FeatureMatrix:
    """N x d feature table with optional binary labels and an optional
    record of the training min-max transform that produced it."""

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list = field(default_factory=list)
    normalization: list | None = None  # per-feature (min, max) from TRAINING data
    tags: np.ndarray | None = None  # synthetic near/far provenance

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.features.shape[0]:
                raise ParameterError("labels length does not match feature rows")

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def take(self, idx):
        return FeatureMatrix(
            features=self.features[idx],
            labels=None if self.labels is None else self.labels[idx],
            feature_names=list(self.feature_names),
            normalization=self.normalization,
            tags=None if self.tags is None else self.tags[idx],
        )

    def keep_rows(self, keep):
        """Keep only the rows where the boolean mask keep is true, in order,
        in place: features becomes a view of them (_to_front). Unlike take,
        this allocates no second N x d array."""
        self.features = _to_front(self.features, keep)
        if self.labels is not None:
            self.labels = self.labels[keep]
        if self.tags is not None:
            self.tags = self.tags[keep]


def _to_front(x, keep):
    """The rows of x where the boolean mask keep is true, moved to the
    front of x in order, _KEEP_BLOCK rows at a time: a view of x, and no
    second array of x's size."""
    n = 0
    for start in range(0, x.shape[0], _KEEP_BLOCK):
        rows = np.flatnonzero(keep[start:start + _KEEP_BLOCK]) + start
        x[n:n + rows.size] = x[rows]
        n += rows.size
    return x[:n]


def load_csv(path, label_column=None, columns=None,
             normal_values=DEFAULT_NORMAL_VALUES):
    """Read a headered CSV into a raw (unnormalized) FeatureMatrix.

    Rows that end before a selected column or the label, or whose selected
    values are unparseable or non-finite, are dropped; the drop count is
    returned alongside. Blank lines are skipped and not counted. Label
    values in normal_values map to 0, everything else to 1. When neither
    columns nor label_column is given, a "label" column (the layout
    save_csv writes) is the label column, not a feature. A UTF-8 byte
    order mark before the header is not part of the first column's name.

    The file is read in chunks of lines (CsvChunks). One np.loadtxt call
    parses a chunk, with a record dtype that types every column (_record),
    so numpy itself rejects a line with another field count. When it
    rejects the chunk, or skips a blank line, the lines with the header's
    field count and no letter that no float literal holds inside a selected
    field go to one more np.loadtxt call and the others to the per-row rule
    (_row_values); all go to the rule when numpy rejects that call. From the
    first chunk holding a quote (a field may span lines) or a control
    character numpy reads differently from float(), the rest of the file
    goes through csv.reader and the per-row rule, in batches of _RULE_ROWS
    rows. Kept rows are copied into one features buffer, sized from the
    file size and the characters per line read so far, grown when that
    falls short and cut to the rows kept at the end (_resize).

    Returns (FeatureMatrix, dropped_count).
    """
    with CsvChunks(path, label_column, columns, normal_values) as source:
        features, n = np.empty((0, len(source.feature_names))), 0
        for rows in source.features:
            stop = n + rows.shape[0]
            if stop > features.shape[0]:
                left = (max(source.size - source.chars, 0) * source.lines
                        // max(source.chars, 1))
                _resize(features, stop + left + left // 16)
            features[n:stop] = rows
            n = stop
    _resize(features, n)
    return FeatureMatrix(features=features, labels=source.labels,
                         feature_names=source.feature_names), source.dropped


def _resize(features, rows):
    """Give the buffer features rows rows in place (ndarray.resize, a
    realloc): it owns its data, and load_csv keeps no view of it."""
    features.resize((rows, features.shape[1]), refcheck=False)


_CHUNK_BYTES = 1 << 20  # size hint for fh.readlines(): one np.loadtxt batch
_RULE_ROWS = 256  # csv.reader rows per batch once a chunk holds a quote
# '"' may open a field that spans lines; np.loadtxt cuts a field at NUL and
# strips \x1c-\x1f as whitespace, where csv and float() do not
_LINE_SPLIT_UNSAFE = '"\x00\x1c\x1d\x1e\x1f'
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
# ASCII letters no float literal holds: float() and np.loadtxt read only
# e/E and the letters of nan, inf and infinity, in either case
_ALIEN_LETTERS = "".join(c for c in string.ascii_letters if c.lower() not in "aefinty")


class _Layout(typing.NamedTuple):
    """Where load_csv finds its values in a row."""

    n_commas: int
    feat_idx: list
    label_idx: int | None
    normal: frozenset
    record: np.dtype  # of one row for np.loadtxt: see _record
    block: bool  # the record's float block is the selection: view it


@contextlib.contextmanager
def _reading(path):
    """Turn the errors of reading path into a DataError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a field over csv's size limit; NUL before 3.11
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    except OSError as exc:  # a directory, an unreadable file
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


class CsvChunks(FeatureMatrix):
    """A headered CSV as a FeatureMatrix whose rows arrive one chunk of
    lines at a time, read by load_csv's rules.

    feature_names are the selected columns and labeled tells whether there
    is a label column. features is a generator of each chunk's kept rows,
    in file order; the arrays are new, so the caller may change them in
    place, and with normalization, a min-max record of the training data
    (minmax_rows), they come scaled in place. Once features is used up,
    labels holds the kept rows' labels (None without a label column; one
    byte a row until then) and dropped the count of dropped rows. A file
    with no kept row raises "no usable rows" once the last chunk is read.
    Use it in a with-block, which closes the file.
    """

    def __init__(self, path, label_column=None, columns=None,
                 normal_values=DEFAULT_NORMAL_VALUES, normalization=None):
        if not os.path.exists(path):
            raise DataError(f"no such file: {path}")
        self.path = path
        self.chars = self.lines = 0  # of the text read so far
        with _reading(path):
            # utf-8-sig: a byte order mark is not part of the first name
            self._fh = open(path, "r", encoding="utf-8-sig", newline="")
            try:
                self._layout, self.feature_names = _header(
                    self._fh, path, label_column, columns, normal_values)
                self.size = os.fstat(self._fh.fileno()).st_size
            except BaseException:
                self._fh.close()
                raise
        self.labeled = self._layout.label_idx is not None
        self.normalization = normalization
        self.dropped = 0
        self.features = self._rows()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def _rows(self):
        labels, kept = [], 0
        with _reading(self.path):
            for features, anomalous, dropped in self._chunks():
                kept += features.shape[0]
                self.dropped += dropped
                if self.normalization is not None:
                    minmax_rows(features, self.normalization, out=features)
                if self.labeled:
                    labels.append(anomalous.astype(np.int8))
                yield features
                del features, anomalous  # not held while the next chunk is parsed
        if not kept:
            raise DataError(f"{self.path}: no usable rows")
        if self.labeled:
            self.labels = np.concatenate(labels, dtype=np.int64)

    def _chunks(self):
        fh, layout = self._fh, self._layout
        for chunk in iter(lambda: fh.readlines(_CHUNK_BYTES), []):
            text = "".join(chunk)
            if any(c in text for c in _LINE_SPLIT_UNSAFE):
                lines = self._counted(itertools.chain(chunk, fh))
                del chunk, text  # the chain lets go of each line it reads
                yield from _rule_rows(csv.reader(lines), layout)
                return
            self.chars += len(text)
            self.lines += len(chunk)
            rows = _parse_lines(chunk, text, layout)
            del chunk, text  # not held while the caller uses the rows
            yield rows
            del rows  # nor while the next chunk is parsed

    def _counted(self, lines):
        for line in lines:
            self.chars += len(line)
            self.lines += 1
            yield line


def _header(fh, path, label_column, columns, normal_values):
    """Read the header line: (the _Layout of the selected columns, their
    names)."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file (missing header)")
    header = [h.strip() for h in header]
    if columns is None and label_column is None and "label" in header:
        label_column = "label"
    if columns is None:
        # "tag" is the provenance column save_csv writes; never a feature
        feature_names = [h for h in header if h not in (label_column, "tag")]
    else:
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        feature_names = list(columns)
    if label_column is not None and label_column not in header:
        raise DataError(f"{path}: missing label column {label_column!r}")
    counts = collections.Counter(header)
    repeated = sorted({c for c in [*feature_names, label_column] if counts[c] > 1})
    if repeated:
        raise DataError(f"{path}: selected columns {repeated} occur more than once in the header")
    feat_idx = [header.index(c) for c in feature_names]
    label_idx = header.index(label_column) if label_column else None
    layout = _Layout(len(header) - 1, feat_idx, label_idx, frozenset(normal_values),
                     *_record(len(header), feat_idx, label_idx))
    return layout, feature_names


def _row_values(raw, layout):
    """The per-row rule on one csv.reader row: (features, is_anomaly), or
    None when the row ends before a selected column or the label, or a
    selected value is unparseable or non-finite."""
    try:
        vals = [float(raw[i]) for i in layout.feat_idx]
        label = None if layout.label_idx is None else raw[layout.label_idx].strip()
    except (ValueError, IndexError):
        return None
    if not all(map(math.isfinite, vals)):
        return None
    return vals, label not in layout.normal


def _rule_kept(rows, layout):
    """The per-row rule on csv.reader rows: (features, is_anomaly) of the
    rows it keeps, and their indices in rows."""
    kept = [(i, row) for i, raw in enumerate(rows)
            if (row := _row_values(raw, layout)) is not None]
    features = np.array([values for _, (values, _) in kept], dtype=np.float64)
    return (features.reshape(len(kept), len(layout.feat_idx)),
            np.array([flag for _, (_, flag) in kept], dtype=np.int64),
            np.array([i for i, _ in kept], dtype=np.intp))


def _rule_rows(reader, layout):
    """The rows of a csv.reader by the per-row rule, _RULE_ROWS rows at a
    time: (features, is_anomaly, dropped) of each batch's kept rows."""
    for batch in iter(lambda: list(itertools.islice(reader, _RULE_ROWS)), []):
        rows = [raw for raw in batch if raw]  # a blank line is no row
        features, anomalous, taken = _rule_kept(rows, layout)
        yield features, anomalous, len(rows) - taken.size


def _parse_lines(lines, text, layout):
    """One chunk of quote-free lines, text their concatenation. Returns
    (features, is_anomaly, dropped) of the kept lines.

    One np.loadtxt call with the record dtype parses the chunk when numpy
    accepts every line. Otherwise (a line with another field count, a text
    cell, a blank line numpy skipped) _parse_irregular reads it. Rows with
    a NaN or an infinite value are dropped."""
    # np.loadtxt warns on a chunk of blank lines
    parsed = None if text.isspace() else _numpy_fields(lines, layout)
    return _parse_irregular(lines, text, layout) if parsed is None else _kept(*parsed)


def _parse_irregular(lines, text, layout):
    """_parse_lines for a chunk numpy rejects or that holds a blank line.
    Lines with the header's comma count and no _suspects letter go to one
    more np.loadtxt call, whose finite rows are kept as a clean chunk's
    are (_kept); the other non-blank lines go through csv.reader and the
    per-row rule, and so does every non-blank line when numpy rejects that
    call too (a "fan" cell, "1_000", a non-ASCII digit). Only when the rule
    keeps a row (a long row, say) are its rows and numpy's copied into new
    arrays, in line order."""
    n = len(lines)
    commas = np.fromiter(map(str.count, lines, itertools.repeat(",")), np.intp, n)
    blank = np.fromiter(map(_BLANK_LINES.__contains__, lines), bool, n)
    parsed = (commas == layout.n_commas) & ~blank & ~_suspects(lines, text, layout)
    fields = None
    if parsed.any():
        fields = _numpy_fields(list(itertools.compress(lines, parsed.tolist())), layout)
    if fields is None:
        parsed[:] = False
        fields = np.empty((0, len(layout.feat_idx))), np.empty(0, dtype=np.int64)
    keep = np.isfinite(fields[0]).all(axis=1)
    values, anomalous, dropped = _kept(*fields, keep)
    rule = np.flatnonzero(~blank & ~parsed)
    rule_values, rule_anomalous, taken = _rule_kept(
        csv.reader(map(lines.__getitem__, rule.tolist())), layout)
    dropped += rule.size - taken.size
    if taken.size:  # each rule row goes before the first numpy row past its line
        at = np.searchsorted(np.flatnonzero(parsed)[keep], rule[taken])
        values = np.insert(values, at, rule_values, axis=0)
        anomalous = np.insert(anomalous, at, rule_anomalous)
    return values, anomalous, dropped


def _kept(values, anomalous, keep=None):
    """(values, anomalous, dropped): the rows of values and anomalous whose
    values are all finite (the rows of keep, when given: that mask), and
    the count of the other rows. The kept values move to the front of
    values in place (_to_front), so a dirty chunk's rows stay a view of its
    records, as a clean chunk's are."""
    if keep is None:
        keep = np.isfinite(values).all(axis=1)
    kept = int(np.count_nonzero(keep))
    if kept < keep.size:  # values are the caller's new array or records
        values, anomalous = _to_front(values, keep), anomalous[keep]
    return values, anomalous, keep.size - kept


def _numpy_fields(lines, layout):
    """_fields of the lines when one np.loadtxt call reads each line as a
    row, else None."""
    try:
        records = _loadtxt(lines, layout.record)
    except ValueError:
        return None
    return _fields(records, layout) if records.shape[0] == len(lines) else None


def _suspects(lines, text, layout):
    """Mask of the lines holding an alien letter (_ALIEN_LETTERS) inside a
    selected feature field: numpy rejects each of them. str.find over the
    chunk text finds the letters; commas are counted only on lines with a
    hit, so a text label or protocol column outside the selection makes
    no line a suspect."""
    suspect = np.zeros(len(lines), dtype=bool)
    hits = np.fromiter(itertools.chain.from_iterable(
        _find_all(text, c) for c in _ALIEN_LETTERS), np.intp)
    if not hits.size:
        return suspect
    lengths = np.fromiter(map(len, lines), np.intp, len(lines))
    ends = np.cumsum(lengths)
    line = np.searchsorted(ends, hits, side="right")
    starts = (ends - lengths)[line]
    column = np.fromiter(map(text.count, itertools.repeat(","), starts.tolist(),
                             hits.tolist()), np.intp, hits.size)
    selected = np.zeros(layout.n_commas + 2, dtype=bool)  # the last: past the header
    selected[layout.feat_idx] = True
    suspect[line[selected[np.minimum(column, layout.n_commas + 1)]]] = True
    return suspect


def _find_all(text, char):
    at = text.find(char)
    while at >= 0:
        yield at
        at = text.find(char, at + 1)


def _loadtxt(lines, record):
    # comments=None: the default "#" would cut a row short
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, dtype=record)


def _fields(records, layout):
    """(features, is_anomaly) of an array of layout.record. The features are
    a view of the record's float block when the selection is that block;
    numpy refuses ndarray.view on a dtype holding objects, so as_strided
    makes it."""
    n = records.shape[0]
    anomalous = np.zeros(n, dtype=np.int64)
    if layout.label_idx is not None:
        labels = records[_field(layout.label_idx)]
        anomalous[~np.fromiter(map(layout.normal.__contains__, map(str.strip, labels)),
                               bool, n)] = 1
    d = len(layout.feat_idx)
    if layout.block:
        return as_strided(records[_field(layout.feat_idx[0])], shape=(n, d),
                          strides=(records.itemsize, 8)), anomalous
    values = np.empty((n, d))
    for j, i in enumerate(layout.feat_idx):
        # a selected label column: float() of its text, NaN where that fails
        values[:, j] = (np.fromiter(map(_float_or_nan, labels), np.float64, n)
                        if i == layout.label_idx else records[_field(i)])
    return values, anomalous


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _field(column):
    return f"c{column}"


def _record(n_columns, feat_idx, label_idx):
    """The np.loadtxt dtype of a row: one field per column, so numpy rejects
    a line with another field count. The selected columns other than the
    label are float64 and make one block at the front, each column once,
    in feat_idx order; the label is a str object; every other column is a
    U1 field whose content is ignored, as the per-row rule ignores it.
    Returns (the dtype, whether the block is the selection)."""
    floats = list(dict.fromkeys(i for i in feat_idx if i != label_idx))
    offsets, formats = {i: 8 * k for k, i in enumerate(floats)}, {}
    end = 8 * len(floats)
    if label_idx is not None:
        offsets[label_idx], formats[label_idx] = end, object
        end += 8
    for i in range(n_columns):
        if i not in offsets:
            offsets[i], formats[i] = end, "U1"
            end += 4
    columns = range(n_columns)
    record = np.dtype({
        "names": [_field(i) for i in columns],
        "formats": [formats.get(i, np.float64) for i in columns],
        "offsets": [offsets[i] for i in columns],
        "itemsize": -(-end // 8) * 8,  # object pointers stay aligned
    })
    return record, bool(feat_idx) and floats == feat_idx


def save_csv(data: FeatureMatrix, path, label_column="label"):
    """Write a FeatureMatrix back out as a headered CSV."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        names = data.feature_names or [f"f{j}" for j in range(data.n_features)]
        header = list(names)
        if data.labels is not None:
            header.append(label_column)
        if data.tags is not None:
            header.append("tag")
        writer.writerow(header)
        for i in range(data.n_rows):
            row = [repr(float(v)) for v in data.features[i]]
            if data.labels is not None:
                row.append(str(int(data.labels[i])))
            if data.tags is not None:
                row.append(str(data.tags[i]))
            writer.writerow(row)


@contextlib.contextmanager
def open_output(path):
    """Open an output file for writing text with "\\n" line ends. A failed
    open or write is a DataError naming the file."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_json(path, what):
    """Parse a JSON file that must hold one object (config, spec, feature
    selection, checkpoint). An unreadable file is a DataError; malformed
    JSON or a non-object is a ParameterError. what names the input in
    messages."""
    try:
        # utf-8-sig: a byte order mark is not part of the document
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"{what}: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{what}: {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{what}: {path} must hold a JSON object")
    return doc


def _matches(value, hint):
    """Whether a JSON value fits a field annotation. An int fits a float
    field; a bool fits neither int nor float."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is type(None):
        return value is None
    if isinstance(hint, types.UnionType):
        return any(_matches(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    return isinstance(value, hint)


def dataclass_from_dict(cls, doc, what):
    """cls(**doc) from a JSON object. A field whose type is a dataclass
    (TrainConfig.weights) is built from its own nested object. A key cls
    does not have, or a value that does not fit its field's type, is a
    ParameterError; what names the input in messages."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ParameterError(f"{what}: unknown keys {unknown}")
    kwargs = dict(doc)
    for name, value in doc.items():
        hint = hints[name]
        if is_dataclass(hint):
            kwargs[name] = dataclass_from_dict(hint, value, f"{what} {name}")
        elif not _matches(value, hint):
            raise ParameterError(
                f"{what}: {name} must be {getattr(hint, '__name__', hint)}, "
                f"got {json.dumps(value)}"
            )
    return cls(**kwargs)


def fit_minmax(train: FeatureMatrix):
    """Per-feature (min, max) record from training data."""
    if train.n_rows == 0:
        raise ParameterError("cannot fit min-max on empty data")
    lo = train.features.min(axis=0)
    hi = train.features.max(axis=0)
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


def apply_minmax(data: FeatureMatrix, record) -> FeatureMatrix:
    """(x - min) / (max - min) with the TRAINING record (minmax_rows), into
    one new N x d array; data is left as it was."""
    return FeatureMatrix(features=minmax_rows(data.features, record),
                         labels=data.labels, feature_names=list(data.feature_names),
                         normalization=list(record), tags=data.tags)


def minmax_rows(x, record, out=None):
    """(x - min) / (max - min) per column of the N x d array x, with the
    TRAINING record, written into out: a new array by default, x itself
    to scale in place.

    Constant training features map to 0. Test values outside the training
    range extrapolate beyond [0, 1].
    """
    if len(record) != x.shape[1]:
        raise ParameterError(
            f"normalization record has {len(record)} features, data has {x.shape[1]}"
        )
    lo = np.array([r[0] for r in record])
    hi = np.array([r[1] for r in record])
    span = hi - lo
    const = ~(span > 0)
    span[const] = 1.0  # a plain divide: a where= mask costs twice as much
    # the difference, divided in place, constants zeroed
    out = np.subtract(x, lo, out=out)
    out /= span
    out[:, const] = 0.0
    return out


def skew_filter(train: FeatureMatrix):
    """Drop rows with any feature outside median +/- 6*MAD.

    Never removes more than 10% of rows: if the cutoff would, it widens to
    the exact 10%-drop quantile of the per-row exceedance. The rows are
    dropped from train in place (FeatureMatrix.keep_rows), and the
    exceedance is built one column at a time, so the filter needs O(N)
    memory beyond train's. Returns (train, dropped_count, widened_flag).
    """
    x = train.features
    n = x.shape[0]
    if n < 10:
        raise ParameterError(f"skew_filter needs >= 10 rows, got {n}")
    exceed = np.zeros(n)  # worst feature per row, in MADs
    for column in x.T:
        med, mad = median_mad(column)
        deviation = column - med
        np.abs(deviation, out=deviation)
        deviation /= mad
        np.maximum(exceed, deviation, out=exceed)
    keep = exceed <= SKEW_CUTOFF_MADS
    widened = False
    max_drop = int(np.floor(MAX_SKEW_DROP_FRACTION * n))
    if n - np.count_nonzero(keep) > max_drop:
        widened = True
        cutoff = np.partition(exceed, n - max_drop - 1)[n - max_drop - 1]
        keep = exceed <= cutoff
    dropped = n - np.count_nonzero(keep)
    train.keep_rows(keep)
    return train, dropped, widened


@dataclass(frozen=True)
class SynthSpec:
    """Correlated-Gaussian normals plus displaced near/far anomalies."""

    n_normal: int = 2000
    n_near: int = 250
    n_far: int = 250
    d: int = 10
    rho: float = 0.7
    near_offset: float = 1.5  # along the correlation structure's minor axis
    far_offset: float = 8.0  # isotropic
    seed: int = 42

    def validate(self):
        if self.d < 2:
            raise ParameterError("synthetic generator needs d >= 2 for correlation")
        if min(self.n_normal, self.n_near, self.n_far) < 0:
            raise ParameterError("counts must be non-negative")
        for name in ("near_offset", "far_offset"):
            offset = getattr(self, name)  # scaled by sqrt(d) in synth_generate
            if not 0 < offset * math.sqrt(self.d) < math.inf:
                raise ParameterError(
                    f"{name} {offset} must be positive, and finite times sqrt(d)")
        if self.seed < 0:
            raise ParameterError(f"seed {self.seed} must be non-negative")
        if not -1.0 < self.rho < 1.0:
            raise ParameterError(f"rho {self.rho} must lie in (-1, 1)")


def synth_generate(spec: SynthSpec) -> FeatureMatrix:
    """Deterministic synthetic benchmark.

    Normals are zero-mean unit-variance Gaussians with serial correlation
    rho (cov[i, j] = rho^|i-j|), which has a unique minor axis (the
    smallest-eigenvalue eigenvector). Offsets are per feature coordinate:
    an offset of c means c feature-sigmas in every dimension, a vector of
    length c*sqrt(d). Near anomalies are displaced near_offset along the
    minor axis (random sign), breaking the correlation structure while
    staying inside the normals' Euclidean distance range. Far anomalies
    are displaced far_offset along a random isotropic direction, far
    outside that range. A spec whose rows or covariance numpy cannot
    allocate is a ParameterError, raised before any work.
    """
    spec.validate()
    d, counts = spec.d, (spec.n_normal, spec.n_near, spec.n_far)
    try:
        features, cov = np.empty((sum(counts), d)), np.empty((d, d))
    except (MemoryError, ValueError) as exc:
        raise ParameterError(
            f"{spec}: {sum(counts)} rows of {d} features cannot be allocated: {exc}"
        ) from None
    rng = np.random.default_rng(spec.seed)
    idx = np.arange(d)
    np.power(spec.rho, np.abs(idx[:, None] - idx[None, :]), out=cov)
    chol = np.linalg.cholesky(cov)
    eigvals, eigvecs = np.linalg.eigh(cov)
    minor_axis = eigvecs[:, 0]  # smallest-eigenvalue direction

    def draw(n):
        return rng.standard_normal((n, d)) @ chol.T

    normals, near, far = np.split(features, np.cumsum(counts[:2]))
    normals[:] = draw(spec.n_normal)

    near[:] = draw(spec.n_near)
    if spec.n_near:
        signs = rng.choice([-1.0, 1.0], size=spec.n_near)
        near += spec.near_offset * np.sqrt(d - 1) * np.outer(signs, minor_axis)

    far[:] = draw(spec.n_far)
    if spec.n_far:
        raw = rng.standard_normal((spec.n_far, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        far += spec.far_offset * np.sqrt(d) * raw

    labels = np.concatenate([
        np.zeros(spec.n_normal, dtype=np.int64),
        np.ones(spec.n_near + spec.n_far, dtype=np.int64),
    ])
    tags = np.concatenate([
        np.full(spec.n_normal, "normal"),
        np.full(spec.n_near, "near"),
        np.full(spec.n_far, "far"),
    ])
    return FeatureMatrix(features=features, labels=labels,
                         feature_names=[f"f{j}" for j in range(d)], tags=tags)


def split_rows(data: FeatureMatrix, train_fraction, seed=42):
    """Seed-deterministic (train, validation, test) split of data's rows:
    three sorted index arrays, for FeatureMatrix.take.

    Validation and test share the remainder equally. Stratified by label
    when labels are present.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError(f"train_fraction must be in (0,1), got {train_fraction}")
    n = data.n_rows
    rng = np.random.default_rng(seed)

    def partition(indices):
        indices = rng.permutation(indices)
        n_tr = int(round(train_fraction * indices.size))
        n_val = (indices.size - n_tr) // 2
        return (indices[:n_tr], indices[n_tr:n_tr + n_val], indices[n_tr + n_val:])

    if data.labels is None:
        tr, va, te = partition(np.arange(n))
    else:
        parts = ([], [], [])
        for lab in np.unique(data.labels):
            for bucket, chunk in zip(parts, partition(np.nonzero(data.labels == lab)[0])):
                bucket.append(chunk)
        tr, va, te = (np.concatenate(b) for b in parts)
    if min(tr.size, va.size, te.size) < 1:
        raise ParameterError(
            f"{n} rows cannot support a {train_fraction:.2f} train split"
        )
    return np.sort(tr), np.sort(va), np.sort(te)
