"""drmdit benchmark: closed-loop CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Defaults: all workloads, seed 1, trace 0, and ``--seconds`` equal to
``run_seconds`` of BENCHMARK.json.

A single client runs the workload's CLI commands one at a time, each
waiting for the previous one, while another iteration of average length
still fits in ``--seconds`` (at least twice). ``--trace 0`` times them
as subprocesses and reports the end-to-end metrics; ``--trace 1`` runs
them in-process under the span wrappers of ``tracer.py`` and reports the
per-layer metrics. Every output is checked. The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics that BENCHMARK.json names; the full record goes to
``perfbench/work/results/``. The exit code is 0 only when every check
passes. See perfbench/README.md for the workloads and what each metric
should show.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# The thread pins are part of the workload definition: OpenBLAS
# oversubscribes the small GEMMs of training. Set them before numpy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, prepare, sha256_file  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")
# setup_s is reported in seconds of a machine on which one run of the
# Reference workload takes this long (see Reference)
REFERENCE_NOMINAL_S = 0.1
MIN_ITERATIONS = 2

# every end-to-end metric the benchmark prints: name -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_rel": "ref",
    "train_rows_per_s": "rows/s",
    "score_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "auc": "ratio",
    "f1": "ratio",
    "near_recall": "ratio",
    "far_recall": "ratio",
    "failed_frac": "ratio",
}


# Runs the CLI as ``python -m drmdit.cli`` does and, at exit, writes the
# process's own peak RSS (VmHWM) to $PERFBENCH_PEAK_KB. ru_maxrss from
# os.wait4 cannot be used: a child started by vfork and exec inherits the
# high-water mark of the benchmark process, which can exceed a small
# command's own peak.
CLI_LAUNCHER = """
import atexit, os, runpy

def _write_peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_KB"], "w") as out:
        out.write(kb)

atexit.register(_write_peak)
runpy.run_module("drmdit.cli", run_name="__main__", alter_sys=True)
"""


class Run:
    """Counts CLI commands and correctness checks of one benchmark run."""

    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def check(self, name, ok, detail=""):
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}".rstrip(": "))
        return ok

    def cli(self, args, log_name):
        """Run ``drmdit <args>`` as a child; returns (exit, wall_s, peak_rss_mb)."""
        self.attempted += 1
        peak_path = os.path.join(self.dir, log_name + ".peak_kb")
        with open(os.path.join(self.dir, log_name + ".log"), "wb") as log:
            start = time.perf_counter()
            code = subprocess.run([sys.executable, "-c", CLI_LAUNCHER, *args],
                                  stdout=log, stderr=subprocess.STDOUT,
                                  env=dict(self.env, PERFBENCH_PEAK_KB=peak_path)).returncode
            wall = time.perf_counter() - start
        self.check(f"{log_name} exit 0", code == 0, f"exit {code}")
        try:
            with open(peak_path, encoding="utf-8") as fh:
                peak_mb = int(fh.read()) / 1024.0
        except (OSError, ValueError):
            peak_mb = None
        self.check(f"{log_name} reported its peak RSS", peak_mb is not None)
        return code, wall, peak_mb

    def fresh_python(self, code):
        """Wall time of a fresh interpreter running ``code``."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
        self.attempted += 1
        self.check("setup interpreter exit 0", proc.returncode == 0,
                   proc.stderr.decode(errors="replace")[-300:])
        return wall


class Reference:
    """A fixed workload that does not use drmdit, timed between the set-up
    samples and commands of every iteration. Host CPU speed drifts by up
    to 65% in phases of seconds to minutes; a timing divided by the
    reference's wall around it cancels most of that drift. It mixes the
    three kinds of work the commands do: Python CSV parsing, BLAS, and a
    memory-bound N x N x d broadcast."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = "\n".join(",".join(f"{v:.6g}" for v in row)
                              for row in rng.standard_normal((6000, 41)))
        self.matrix = rng.standard_normal((600, 600))
        self.points = rng.standard_normal((400, 48))

    def seconds(self):
        start = time.perf_counter()
        for row in csv.reader(io.StringIO(self.text)):
            sum(float(v) for v in row)
        self.matrix @ self.matrix
        diff = self.points[:, None, :] - self.points[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff)
        return time.perf_counter() - start


def train_args(inputs, model_path, seed):
    return ["train", "--data", inputs.train_csv, "--features", inputs.features_json,
            "--config", inputs.config_json, "--seed", str(seed), "--out", model_path]


def scored_args(workload, inputs, model_path, prefix):
    if workload.command == "eval":
        return ["eval", "--model", model_path, "--data", inputs.eval_csv,
                "--labels", "label", "--band", "auto", "--out", prefix]
    return ["score", "--model", model_path, "--data", inputs.eval_csv, "--out", prefix]


def folded_auc(transformed, labels):
    """Two-sided ranking AUC of already-folded scores, ties counted half."""
    order = np.argsort(transformed, kind="mergesort")
    _, inverse, counts = np.unique(transformed[order], return_inverse=True,
                                   return_counts=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = np.empty(transformed.size)
    ranks[order] = average_rank[inverse]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def outputs_sha256(prefix):
    paths = [prefix + ".report.json", prefix + ".trace.csv"]
    if not all(os.path.exists(p) for p in paths):
        return None
    return "".join(sha256_file(p) for p in paths)


def check_outputs(run, inputs, prefix):
    """Correctness checks on one scoring command's outputs; returns the
    quality metrics."""
    w = run.workload
    trace_path, report_path = prefix + ".trace.csv", prefix + ".report.json"
    if not run.check("outputs written", os.path.exists(trace_path)
                     and os.path.exists(report_path), prefix):
        return {}
    with open(trace_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols = list(zip(*(line.rstrip("\n").split(",") for line in fh)))
    col = dict(zip(header, cols)) if cols else {h: () for h in header}
    expected = inputs.truth_tags.size
    rows = len(col["index"])
    if not run.check("trace rows == clean rows", rows == expected,
                     f"{rows} != {expected}"):
        return {}
    transformed = np.array(col["transformed_score"], dtype=np.float64)
    scores = np.array(col["score"], dtype=np.float64)
    run.check("scores finite", bool(np.isfinite(scores).all()
                                    and np.isfinite(transformed).all()))
    quality = {"auc": folded_auc(transformed, inputs.truth_labels)}
    if w.command == "eval":
        with open(report_path, encoding="utf-8") as fh:
            m = json.load(fh)["metrics"]
        run.check("report auc == auc of trace", abs(m["auc"] - quality["auc"]) < 1e-9,
                  f"{m['auc']} vs {quality['auc']}")
        p, r = m["precision"], m["recall"]
        quality["f1"] = 2 * p * r / (p + r) if p + r > 0 else 0.0
        predictions = np.array(col["prediction"], dtype=np.int64)
        for tag in ("near", "far"):
            quality[f"{tag}_recall"] = float(predictions[inputs.truth_tags == tag].mean())
        if w.recall_floor is not None:
            for tag in ("near", "far"):
                value = quality[f"{tag}_recall"]
                run.check(f"{tag} recall >= {w.recall_floor}", value >= w.recall_floor,
                          f"{value:.4f}")
    return quality


def known_red_probe(run, model_path):
    """eval on a tiny labeled CSV whose last row stops before the label
    column. It exits 1 with an uncaught IndexError until the loader counts
    such a row as dropped (exit 0) or raises DataError (exit 3). Reported,
    never counted as a failure."""
    d = run.workload.d
    path = os.path.join(run.dir, "known_red.csv")
    rng = np.random.default_rng(run.seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
        for i in range(12):
            fh.write(",".join(f"{v:.6g}" for v in rng.standard_normal(d)) + f",{i % 2}\n")
        fh.write(",".join(f"{v:.6g}" for v in rng.standard_normal(d)) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "drmdit.cli", "eval", "--model", model_path, "--data", path,
         "--labels", "label", "--out", os.path.join(run.dir, "known_red")],
        env=run.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.decode(errors="replace").strip().splitlines()
    return {"eval_row_truncated_before_label": {
        "exit": proc.returncode, "red": proc.returncode not in (0, 3),
        "stderr_tail": err[-1] if err else ""}}


def setup_code(workload, model_path):
    """Code a fresh interpreter runs for ``setup_s``: import drmdit.cli and,
    on the scoring workloads, load the checkpoint with train.model_from_dict."""
    code = "import drmdit.cli"
    if not workload.timed_train:
        code += ("\nimport json\nfrom drmdit import train\n"
                 f"with open({model_path!r}) as fh:\n"
                 "    train.model_from_dict(json.load(fh))")
    return code


def measure(run, inputs, model_path, seconds):
    """Closed loop of timed iterations; returns end-to-end metrics and
    the sha256 of checkpoints and outputs.

    An iteration runs the reference workload, one ``setup_s`` sample,
    the reference, the timed commands, the reference, then two more
    ``setup_s`` samples each followed by the reference. A set-up sample is
    divided by the mean of the two reference runs next to it, and
    ``setup_s`` is the median of these ratios. ``wall_rel`` is the mean
    wall of an iteration's commands over the mean wall of all reference
    runs: a command lasts seconds and takes in every slow phase within
    them, so it is set against the mean, not the median, of the reference.
    Iterations only hash their outputs; the last one's are checked in full
    after the loop, and all must be byte-identical.
    """
    w = run.workload
    prefix = os.path.join(run.dir, "out")
    reference = Reference()
    code = setup_code(w, model_path)
    walls, refs, train_rate, score_rate, rss = [], [], [], [], []
    setup_walls, setup_rel = [], []
    checkpoint_sha, output_sha = [], []

    def setup_sample(iteration_refs):
        wall = run.fresh_python(code)
        iteration_refs.append(reference.seconds())
        setup_walls.append(wall)
        setup_rel.append(wall / ((iteration_refs[-2] + iteration_refs[-1]) / 2))

    start = time.perf_counter()
    elapsed = 0.0
    # stop before an iteration of average length would overrun the window
    while (len(walls) < MIN_ITERATIONS
           or elapsed + elapsed / len(walls) <= seconds):
        i = len(walls)
        iteration_refs = [reference.seconds()]
        setup_sample(iteration_refs)
        wall = 0.0
        if w.timed_train:
            _, t, mb = run.cli(train_args(inputs, model_path, run.seed), f"train-{i}")
            wall += t
            rss.append(mb)
            train_rate.append(w.train_rows * w.config["epochs"] / t)
            checkpoint_sha.append(sha256_file(model_path) if os.path.exists(model_path)
                                  else None)
        _, t, mb = run.cli(scored_args(w, inputs, model_path, prefix), f"{w.command}-{i}")
        wall += t
        rss.append(mb)
        score_rate.append(w.eval_rows / t)
        output_sha.append(outputs_sha256(prefix))
        iteration_refs.append(reference.seconds())
        setup_sample(iteration_refs)
        setup_sample(iteration_refs)
        refs.append(iteration_refs)
        walls.append(wall)
        elapsed = time.perf_counter() - start
    if w.timed_train:
        run.check("checkpoints byte-identical across iterations",
                  len(set(checkpoint_sha)) == 1 and None not in checkpoint_sha)
    run.check("outputs byte-identical across iterations",
              len(set(output_sha)) == 1 and None not in output_sha)
    metrics = {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(setup_rel),
        "wall_s": statistics.median(walls),
        "wall_rel": statistics.mean(walls) / statistics.mean(sum(refs, [])),
        "score_rows_per_s": statistics.median(score_rate),
        "peak_rss_mb": max((mb for mb in rss if mb is not None), default=None),
        **check_outputs(run, inputs, prefix),
    }
    if train_rate:
        metrics["train_rows_per_s"] = statistics.median(train_rate)
    metrics = {k: v for k, v in metrics.items() if v is not None}
    record = {"iterations": len(walls), "walls_s": walls, "reference_s": refs,
              "setup_walls_s": setup_walls,
              "setup_wall_s_median": statistics.median(setup_walls),
              "checkpoint_sha256": checkpoint_sha[0] if checkpoint_sha else None,
              "outputs_sha256": output_sha[0]}
    return metrics, record


def traced(run, inputs, model_path):
    """One iteration in-process under the tracer; returns per-layer metrics."""
    w = run.workload
    prefix = os.path.join(run.dir, "out")
    commands = [scored_args(w, inputs, model_path, prefix)]
    if w.timed_train:
        commands.insert(0, train_args(inputs, model_path, run.seed))
    spec_path = os.path.join(run.dir, "trace_spec.json")
    out_path = os.path.join(run.dir, "trace_out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "checkpoint": model_path}, fh)
    with open(os.path.join(run.dir, "traced.log"), "wb") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spec_path, out_path],
            env=run.env, stdout=log, stderr=subprocess.STDOUT)
    run.attempted += 3 * len(commands)  # untraced, traced, untraced
    if not run.check("traced process exit 0", proc.returncode == 0
                     and os.path.exists(out_path), f"exit {proc.returncode}"):
        return {}
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for c in result["commands"]:
        for key in ("exit_untraced", "exit_traced"):
            run.check(f"{c['args'][0]} {key} == 0", c[key] == 0, f"exit {c[key]}")
    check_outputs(run, inputs, prefix)
    return result["per_layer"]


def machine_facts():
    load = os.getloadavg()
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_commit": commit,
    }


def run_workload(name, seed, seconds, trace):
    w = WORKLOADS[name]
    facts = machine_facts()
    run_dir = os.path.join(WORK, "run", name)
    shutil.rmtree(run_dir, ignore_errors=True)  # no stale model or outputs
    os.makedirs(run_dir)
    run = Run(w, seed, run_dir)
    inputs = prepare(w, seed, os.path.join(WORK, "inputs"))
    model_path = os.path.join(run_dir, "model.json")
    if not w.timed_train:  # set-up training, untimed
        run.cli(train_args(inputs, model_path, seed), "setup-train")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": facts, "inputs_sha256": inputs.sha256}
    if trace:
        metrics = traced(run, inputs, model_path)
        units = tracer.per_layer_units()
    else:
        metrics, measured = measure(run, inputs, model_path, seconds)
        record.update(measured)
        record["known_red"] = known_red_probe(run, model_path)
        metrics["failed_frac"] = run.failed / run.attempted
        units = END_TO_END_UNITS
    record.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  metrics={k: {"value": metrics[k], "unit": units[k]}
                           for k in units if k in metrics})
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    results_path = os.path.join(WORK, "results",
                                f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"threads {facts['thread_env']}  nproc {facts['nproc']}\n   {w.why}")
    for key, unit in units.items():
        value = metrics.get(key)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:45s} {shown:>14s} {unit}")
    if not trace:
        all_refs = [r for refs in record["reference_s"] for r in refs]
        print(f"  reference workload mean {statistics.mean(all_refs):.4g} s,"
              f" raw set-up median {record['setup_wall_s_median']:.4g} s,"
              f" {record['iterations']} iterations")
        print(f"  known_red {json.dumps(record['known_red'])}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(f"  record {os.path.relpath(results_path, ROOT)}")
    return run, metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload; default: "
                             "run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drmdit", "cli.py")):
        print(f"error: no drmdit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    gated = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        run, metrics, units = run_workload(name, args.seed, seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        for key in gated:
            if key not in metrics:
                failed += 1
                print(f"  FAILED metric {key} not measured", file=sys.stderr)
                continue
            label = key if len(names) == 1 else f"{name}.{key}"
            out[label] = {"value": metrics[key], "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
