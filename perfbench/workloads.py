"""Workload definitions and seeded input generation for the benchmark.

Inputs are generated here, not with ``drmdit.data``: a change to
``synth_generate`` or ``save_csv`` must not change what the benchmark feeds
the program. The generator follows the paper's synthetic benchmark:
correlated-Gaussian normals (cov[i, j] = rho^|i-j|), near anomalies
displaced along the covariance's minor axis, far anomalies displaced along
a random isotropic direction.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, field

import numpy as np

RHO = 0.7
NEAR_OFFSET = 1.5
FAR_OFFSET = 8.0
VALUE_FORMAT = "%.6g"
DIRTY_KINDS = ("nan", "inf", "text", "truncated")
CACHED_SEEDS_PER_WORKLOAD = 2  # the bulk CSVs are ~40 MB each


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: what is generated and which CLI commands run.

    ``timed_train`` workloads run ``drmdit train`` and then ``command`` in
    every timed iteration; the others train once during set-up, untimed,
    and time only ``command``.
    """

    name: str
    why: str
    d: int
    train_rows: int
    eval_mix: tuple  # (normal, near, far) rows of the scored CSV
    config: dict = field(default_factory=dict)
    timed_train: bool = True
    command: str = "eval"  # "eval" (labeled, --band auto) or "score"
    dirty_frac: float = 0.0
    recall_floor: float | None = None  # checked on near and far recall

    @property
    def eval_rows(self):
        return sum(self.eval_mix)


# Training configs. sigma grows with sqrt(d) so that kernel widths stay
# comparable to pairwise distances of min-max-normalized rows.
_BULK_MODEL = {"sigma": 0.5, "batch_size": 256, "epochs": 5}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-synth",
            why="small batches at d=10: input Gram, MI gradient and per-call "
                "overhead share the step; the only near/far quality check",
            d=10, train_rows=1536, eval_mix=(500, 250, 250),
            config={"sigma": 0.1, "batch_size": 256, "epochs": 60,
                    "latent_dim": 10, "hidden_dims": []},
            recall_floor=0.9,  # acceptance criterion 5
        ),
        Workload(
            name="train-wide",
            why="d=122 at batch 1024: the N*N*d pairwise broadcast dominates "
                "time and peak memory",
            d=122, train_rows=2048, eval_mix=(800, 100, 100),
            config={"sigma": 0.9, "batch_size": 1024, "epochs": 2},
        ),
        Workload(
            name="eval-bulk",
            why="100k clean labeled rows at d=41: CSV ingestion, scoring, band "
                "selection, AUC and report emission; training idle",
            d=41, train_rows=2048, eval_mix=(90000, 5000, 5000),
            config=_BULK_MODEL, timed_train=False, command="eval",
        ),
        Workload(
            name="score-dirty",
            why="operator path: score 100k rows at d=41 with 3% dirty rows and "
                "no --features; skips band selection and AUC",
            d=41, train_rows=2048, eval_mix=(90000, 5000, 5000),
            config=_BULK_MODEL, timed_train=False, command="score",
            dirty_frac=0.03,
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus the ground truth of the scored rows that the
    program should keep (dirty rows removed, order preserved)."""

    train_csv: str
    eval_csv: str
    features_json: str
    config_json: str
    truth_tags: np.ndarray  # "normal" / "near" / "far" per clean row
    sha256: dict

    @property
    def truth_labels(self):
        return (self.truth_tags != "normal").astype(np.int64)


def correlated_normals(rng, n, d, rho=RHO):
    idx = np.arange(d)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T


def near_far_rows(rng, mix, d, rho=RHO):
    """Shuffled (features, tags) rows: normals, near and far anomalies."""
    n_normal, n_near, n_far = mix
    idx = np.arange(d)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    minor_axis = np.linalg.eigh(cov)[1][:, 0]
    normals = correlated_normals(rng, n_normal, d, rho)
    near = correlated_normals(rng, n_near, d, rho)
    signs = rng.choice([-1.0, 1.0], size=n_near)
    near += NEAR_OFFSET * np.sqrt(d - 1) * np.outer(signs, minor_axis)
    far = correlated_normals(rng, n_far, d, rho)
    direction = rng.standard_normal((n_far, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    far += FAR_OFFSET * np.sqrt(d) * direction
    x = np.vstack([normals, near, far])
    tags = np.array(["normal"] * n_normal + ["near"] * n_near + ["far"] * n_far)
    order = rng.permutation(x.shape[0])
    return x[order], tags[order]


def csv_lines(x, labels):
    """Data lines 'v0,...,v{d-1},label' without the header."""
    fmt = ",".join([VALUE_FORMAT] * x.shape[1]) + ",%d"
    return [fmt % (*row, lab) for row, lab in zip(x.tolist(), labels.tolist())]


def dirty_plan(n_rows, d, frac, rng):
    """Seeded (positions, kinds, columns) of round(frac * n_rows) dirty rows."""
    k = int(round(frac * n_rows))
    positions = np.sort(rng.choice(n_rows, size=k, replace=False))
    kinds = rng.integers(0, len(DIRTY_KINDS), size=k)
    columns = rng.integers(0, d, size=k)
    return positions, kinds, columns


def inject_dirty(lines, d, plan):
    """Corrupt the planned lines in place.

    Each corrupted line loses at least one feature value: NaN, +/-inf,
    non-numeric text, or truncation inside the feature columns (the line
    ends mid-feature, so it has fewer than d fields).
    """
    for pos, kind, col in zip(*(a.tolist() for a in plan)):
        fields = lines[pos].split(",")
        kind = DIRTY_KINDS[kind]
        if kind == "truncated":
            col = min(col, d - 2)  # keep the cut inside the feature columns
            lines[pos] = ",".join(fields[:col] + [fields[col][: len(fields[col]) // 2]])
            continue
        fields[col] = {"nan": "nan", "inf": "-inf" if col % 2 else "inf",
                       "text": "tcp"}[kind]
        lines[pos] = ",".join(fields)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_csv(path, d, lines):
    header = ",".join([f"f{j}" for j in range(d)] + ["label"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines) + "\n")


def prepare(workload: Workload, seed: int, cache_root: str) -> Inputs:
    """Generate (or reuse from the per-seed cache) the workload's inputs.

    The arrays and the dirty-row plan are always regenerated, which is
    cheap; only the CSV formatting is cached. The cache folder is keyed on
    the seed and on ``definition_key``, and a cached file is reused only
    when its sha256 matches the one recorded when it was written.
    """
    rng = np.random.default_rng([seed, workload.d])
    train_x = correlated_normals(rng, workload.train_rows, workload.d)
    eval_x, tags = near_far_rows(rng, workload.eval_mix, workload.d)
    plan = dirty_plan(tags.size, workload.d, workload.dirty_frac, rng)
    keep = np.ones(tags.size, dtype=bool)
    keep[plan[0]] = False

    root = os.path.join(cache_root, workload.name)
    folder = os.path.join(root, f"seed-{seed}-{definition_key(workload)}")
    paths = {
        "train_csv": os.path.join(folder, "train.csv"),
        "eval_csv": os.path.join(folder, "eval.csv"),
        "features_json": os.path.join(folder, "features.json"),
        "config_json": os.path.join(folder, "config.json"),
    }
    manifest_path = os.path.join(folder, "manifest.json")
    sha = _cached_sha(manifest_path, paths)
    if sha is None:
        _evict_old_seeds(root)
        os.makedirs(folder, exist_ok=True)
        _write_csv(paths["train_csv"], workload.d,
                   csv_lines(train_x, np.zeros(train_x.shape[0], dtype=np.int64)))
        eval_lines = csv_lines(eval_x, (tags != "normal").astype(np.int64))
        inject_dirty(eval_lines, workload.d, plan)
        _write_csv(paths["eval_csv"], workload.d, eval_lines)
        with open(paths["features_json"], "w", encoding="utf-8") as fh:
            json.dump({"label_column": "label"}, fh)
        with open(paths["config_json"], "w", encoding="utf-8") as fh:
            json.dump(workload.config, fh, sort_keys=True)
        sha = {key: sha256_file(p) for key, p in paths.items()}
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(sha, fh, indent=1, sort_keys=True)
    return Inputs(truth_tags=tags[keep], sha256=sha, **paths)


def definition_key(workload):
    """Short hash of the workload's definition and of this file's source,
    which holds the generator and its constants: editing either makes a
    new cache folder instead of reusing inputs made by the old code."""
    h = hashlib.sha256(json.dumps(asdict(workload), sort_keys=True).encode())
    with open(__file__, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:12]


def _cached_sha(manifest_path, paths):
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except (OSError, ValueError):
        return None
    for key, p in paths.items():
        if not os.path.exists(p) or recorded.get(key) != sha256_file(p):
            return None
    return recorded


def _evict_old_seeds(root):
    if not os.path.isdir(root):
        return
    folders = sorted((os.path.join(root, f) for f in os.listdir(root)),
                     key=os.path.getmtime)
    for old in folders[: max(0, len(folders) - CACHED_SEEDS_PER_WORKLOAD + 1)]:
        shutil.rmtree(old, ignore_errors=True)
