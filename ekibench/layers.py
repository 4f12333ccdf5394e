"""Per-layer metrics from the spans that traced rounds write.

A span is (name, start, end, parent, value).  Its self time is its duration
minus the durations of its direct children (spans nest, since a round runs
on one thread).  The starts of the ``eki.forward`` spans cut a round into
outer iterations: iteration k runs from forward evaluation k to forward
evaluation k + 1.  Spans before the first forward evaluation are set-up.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

FORWARD_SPAN = "eki.forward"
MIB = 2.0**20

# metric -> (unit, span names, how spans are reduced); set-up metrics are
# totals per round, the rest totals per outer iteration
SETUP = {
    "harness.model_setup_s": ("s", ("harness.build_model_setup",), "total"),
    "harness.truth_data_s": ("s", ("harness.make_truth", "harness.attach_data"), "total"),
    "harness.param_build_s": ("s", ("harness.build_parameterization",
                                    "harness.sample_initial"), "total"),
    "harness.setup_builds": ("1", ("harness.build_model_setup",), "count"),
    "forward.obs_matrix_mb": ("MB", ("harness.attach_data",), "max_mb"),
}
PER_ITERATION = {
    "param_maps.decode_s": ("s", ("param_maps.decode",), "self"),
    "param_maps.decodes_per_iter": ("1", ("param_maps.decode",), "count"),
    "harness.report_s": ("s", ("harness.report",), "total"),
    "forward.assemble_s": ("s", ("forward.assemble",), "self"),
    "forward.solve_s": ("s", ("forward.solve",), "self"),
    "forward.solves_per_iter": ("1", ("forward.solve",), "count"),
    "forward.observe_s": ("s", ("forward.observe",), "self"),
    "eki.upsilon_s": ("s", ("eki.select_upsilon",), "self"),
    "eki.upsilon_trials": ("1", ("eki.select_upsilon",), "value"),
    "eki.update_s": ("s", ("eki.eki_step",), "self"),
    "eki.ensemble_mb": ("MB", ("eki.eki_step",), "max_mb"),
}


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    for span, covered in zip(spans, child_time):
        span["total"] = span["end"] - span["start"]
        span["self"] = span["total"] - covered
    return spans


def _reduce(spans: list[dict], names: tuple, how: str) -> float:
    chosen = [s for s in spans if s["name"] in names]
    if how == "count":
        return len(chosen)
    if how == "value":
        return sum(s["value"] for s in chosen)
    if how == "max_mb":
        return max((s["value"] for s in chosen), default=0) / MIB
    return sum(s[how] for s in chosen)


def round_layers(spans: list[dict]) -> tuple[dict, list[dict]]:
    """(set-up metrics, per-iteration metrics of every full outer iteration)."""
    cuts = [s["start"] for s in spans if s["name"] == FORWARD_SPAN]
    setup_spans = [s for s in spans if s["start"] < cuts[0]]
    setup = {name: _reduce(setup_spans, names, how)
             for name, (_, names, how) in SETUP.items()}
    iterations = []
    for lo, hi in zip(cuts, cuts[1:]):
        window = [s for s in spans if lo <= s["start"] < hi]
        metrics = {name: _reduce(window, names, how)
                   for name, (_, names, how) in PER_ITERATION.items()}
        metrics["iter_s"] = hi - lo
        iterations.append(metrics)
    return setup, iterations


def run_layers(span_files: list[Path]) -> tuple[dict, float]:
    """Per-layer metrics of a traced run, {name: (value, unit)}, and the
    traced median iteration time.  Set-up metrics are medians over rounds;
    per-iteration metrics are medians over the iterations of all rounds,
    leaving out the first iteration of each round."""
    setups, iterations = [], []
    for path in span_files:
        setup, its = round_layers(read_spans(path))
        setups.append(setup)
        iterations += its[1:]
    metrics = {name: (statistics.median(s[name] for s in setups), unit)
               for name, (unit, _, _) in SETUP.items()}
    metrics.update({name: (statistics.median(it[name] for it in iterations), unit)
                    for name, (unit, _, _) in PER_ITERATION.items()})
    return metrics, statistics.median(it["iter_s"] for it in iterations)
