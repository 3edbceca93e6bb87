"""Per-layer tracing for the benchmark's traced run.

Wrappers are installed on ``drmdit`` module attributes only inside the
traced process, around in-process calls to the same CLI commands that the
untraced run makes as subprocesses. Span names are stable
``<layer>.<stage>`` names kept in ``SPANS``: a refactor that moves a
function changes one line there, not the metric names.

Run as a script (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPEC.json OUT.json

SPEC.json holds ``{"commands": [[cli args...], ...], "checkpoint": path}``.
Each command runs untraced, traced, then untraced again; OUT.json receives
the per-layer metrics and each command's exit codes and walls.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
import traceback
from collections import Counter, defaultdict

# stable span name -> (module, attribute) whose calls it times
SPANS = {
    "ndmath.pairwise_sq_dists": ("drmdit.ndmath", "pairwise_sq_dists"),
    "ndmath.gaussian_gram": ("drmdit.ndmath", "gaussian_gram"),
    "ndmath.normalize_gram": ("drmdit.ndmath", "normalize_gram"),
    "ndmath.ridge_inverse": ("drmdit.ndmath", "ridge_inverse"),
    "itl.mi_grad": ("drmdit.train", "matrix_mi_with_latent_grad"),
    "robust.robust_correlation": ("drmdit.robust", "robust_correlation"),
    "robust.classical_stats": ("drmdit.robust", "classical_stats"),
    "robust.robust_md": ("drmdit.robust", "robust_md"),
    "autoenc.forward": ("drmdit.autoenc", "forward"),
    "autoenc.backward": ("drmdit.autoenc", "backward"),
    "train.fit": ("drmdit.train", "fit"),
    "train.joint_loss": ("drmdit.train", "joint_loss"),
    "train.adam_step": ("drmdit.train", "adam_step"),
    "train.model_to_dict": ("drmdit.train", "model_to_dict"),
    "data.load_csv": ("drmdit.data", "load_csv"),
    "data.skew_filter": ("drmdit.data", "skew_filter"),
    "data.apply_minmax": ("drmdit.data", "apply_minmax"),
    "detect.score": ("drmdit.detect", "score"),
    "detect.select_band": ("drmdit.detect", "select_band"),
    "detect.auc": ("drmdit.detect", "auc"),
    "detect.classify": ("drmdit.detect", "classify"),
    "detect.emit_report": ("drmdit.detect", "emit_report"),
}
CLI_SPAN = "cli"

# extra per-layer metrics: name -> unit
EXTRA_UNITS = {
    "ndmath.pairwise_sq_dists.bytes_computed": "B",
    "itl.entropy_floor_hits": "count",
    "robust.mad_floor_hits": "count",
    "train.joint_loss.ms_p50": "ms",
    "train.joint_loss.ms_p99": "ms",
    "train.joint_loss.samples": "count",
    "train.checkpoint_bytes": "B",
    "data.rows_read": "count",
    "data.rows_dropped": "count",
    "data.rows_kept_ratio": "ratio",
    "data.bytes_read": "B",
    "detect.report_bytes": "B",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def per_layer_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(EXTRA_UNITS)
    return units


class Recorder:
    """In-memory spans ``[name, start, end, children_s]`` and counters.

    Calls nest on one stack, so a span's children are disjoint and inside
    it: its self time is its duration minus the sum of its children's.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.entropy_floor = None
        self.mad_floor = None

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, 0.0]
        self.spans.append(record)
        self.stack.append(record)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[1], record[2] = start, time.perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1][3] += record[2] - start

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """(calls, summed self seconds) per span name."""
        calls, self_s = Counter(), defaultdict(float)
        for name, start, end, children_s in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - children_s
        return calls, self_s

    def metrics(self, command_walls, checkpoint_path):
        """Per-layer metrics from the recorded spans and counters."""
        calls, self_s = self.self_times()
        joint_loss_ms = [1e3 * (end - start) for name, start, end, _ in self.spans
                         if name == "train.joint_loss"]
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        c = self.counters
        joint_loss_ms.sort()
        out.update({
            "ndmath.pairwise_sq_dists.bytes_computed": c["pairwise_bytes"],
            "itl.entropy_floor_hits": c["entropy_floor_hits"],
            "robust.mad_floor_hits": c["mad_floor_hits"],
            "train.joint_loss.ms_p50": _percentile(joint_loss_ms, 50),
            "train.joint_loss.ms_p99": _percentile(joint_loss_ms, 99),
            "train.joint_loss.samples": len(joint_loss_ms),
            "train.checkpoint_bytes": os.path.getsize(checkpoint_path),
            "data.rows_read": c["rows_read"],
            "data.rows_dropped": c["rows_dropped"],
            "data.rows_kept_ratio": ((c["rows_read"] - c["rows_dropped"]) / c["rows_read"]
                                     if c["rows_read"] else 0.0),
            "data.bytes_read": c["bytes_read"],
            "detect.report_bytes": c["report_bytes"],
            "cli.self_s": self_s[CLI_SPAN],
            "trace_overhead_frac": ((sum(command_walls["traced"])
                                     - sum(command_walls["untraced"]))
                                    / sum(command_walls["untraced"])),
        })
        return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _observe_pairwise(rec, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    rec.counters["pairwise_bytes"] += len(a) * len(b) * a.shape[1] * 8


def _observe_mi(rec, args, kwargs, result):
    if min(result[2]) <= rec.entropy_floor:  # (hx, hz, hxz)
        rec.counters["entropy_floor_hits"] += 1


def _observe_robust_correlation(rec, args, kwargs, result):
    if (result.mads <= rec.mad_floor).any():
        rec.counters["mad_floor_hits"] += 1


def _observe_load_csv(rec, args, kwargs, result):
    dataset, dropped = result
    rec.counters["rows_read"] += dataset.n_rows + dropped
    rec.counters["rows_dropped"] += dropped
    rec.counters["bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _observe_emit_report(rec, args, kwargs, result):
    rec.counters["report_bytes"] += sum(os.path.getsize(p) for p in result)


OBSERVERS = {
    "ndmath.pairwise_sq_dists": _observe_pairwise,
    "itl.mi_grad": _observe_mi,
    "robust.robust_correlation": _observe_robust_correlation,
    "data.load_csv": _observe_load_csv,
    "detect.emit_report": _observe_emit_report,
}


def install(rec):
    """Replace every reference to a traced function in the loaded drmdit
    modules (``from x import f`` copies included) with its wrapper.

    Returns the (module, attribute, original) triples to restore.
    """
    rec.entropy_floor = importlib.import_module("drmdit.itl").ENTROPY_FLOOR
    rec.mad_floor = importlib.import_module("drmdit.robust").MAD_FLOOR
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "drmdit" or n.startswith("drmdit."))]
    patched = []
    for name, (module, attr) in SPANS.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = rec.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched.append((m, key, original))
    return patched


def uninstall(patched):
    for m, key, original in patched:
        setattr(m, key, original)


def run_cli(args):
    """Run one drmdit CLI command in-process; returns its exit code."""
    import click  # imported here: only the traced child has src on its path
    from drmdit.cli import main

    try:
        main.main(args=list(args), prog_name="drmdit", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except Exception:  # noqa: BLE001 - an uncaught error is exit 1, as in a subprocess
        traceback.print_exc()
        return 1
    return 0


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import drmdit.cli  # noqa: F401 - import cost stays out of the timed calls

    rec = Recorder()
    walls = {"untraced": [], "traced": []}
    commands = []
    for args in spec["commands"]:
        # untraced, traced, untraced: the untraced wall is the mean of the two
        # runs around the traced one, so warm-up does not bias the overhead
        exit_before, before = _timed(run_cli, args)
        patched = install(rec)
        try:
            exit_traced, traced = _timed(rec.call, CLI_SPAN, run_cli, args)
        finally:
            uninstall(patched)
        exit_after, after = _timed(run_cli, args)
        walls["traced"].append(traced)
        walls["untraced"].append((before + after) / 2)
        commands.append({"args": args, "exit_untraced": exit_before or exit_after,
                         "exit_traced": exit_traced})
    result = {"commands": commands, "walls": walls,
              "per_layer": rec.metrics(walls, spec["checkpoint"])}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
