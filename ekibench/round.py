"""One benchmark round: a single EKI experiment in this process, then its checks.

    python3 ekibench/round.py --config CONFIG.ini --seed N --out DIR --trace 0|1

Loads the workload configuration, sets its master seed and output directory
as ``ekinv run --seed --out-dir`` does, and calls
``ekinv.harness.run_experiment``.  The only instrument of an untraced round
is a wrapper around the forward map that ``run_inversion`` receives: it reads
the clock when each ensemble forward evaluation starts and keeps the
outputs, which the Upsilon check needs.  A traced round also wraps the
public callables the harness calls, one span per call, and writes the spans
to ``DIR/spans.jsonl`` when the experiment has finished.

Writes ``DIR/round.json`` with the timings, the manifest's file inventory
and every check failure.  Check failures do not change the exit code; the
caller decides.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from layers import FORWARD_SPAN, MIB

ROOT_SPAN = "harness.run_experiment"
CHECK_MEMBERS = 4   # final members re-solved by the forward-equation checks


class Tracer:
    """Spans (name, start, end, parent, value) held in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, value=None):
        """``fn`` inside a span; ``value(args, result)`` is stored with it."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    self.spans[index][4] = value(args, result)
                return result
            finally:
                self.close(index)
        return traced

    def patch(self, owner, attr: str, name: str, value=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, value))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, value in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "value": value}) + "\n")


class Probe:
    """What the untraced round keeps: forward start times and outputs, the
    initial and final ensembles, the observation model and the
    parameterization."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.forward_starts: list[float] = []
        self.outputs: list[np.ndarray] = []
        self.failed_calls = 0
        self.initial = self.final = self.obs = self.param = None

    def install(self, harness) -> None:
        run_inversion = harness.run_inversion
        build_parameterization = harness.build_parameterization

        def probed_run_inversion(ensemble, forward_map, obs, *args, **kwargs):
            self.initial, self.obs = ensemble.members, obs
            if self.tracer is not None:
                forward_map = self.tracer.wrap(forward_map, FORWARD_SPAN)

            def timed_forward(members):
                self.forward_starts.append(time.perf_counter())
                try:
                    outputs = forward_map(members)
                except Exception:
                    self.failed_calls += 1
                    raise
                self.outputs.append(outputs)
                return outputs

            result = run_inversion(ensemble, timed_forward, obs, *args, **kwargs)
            self.final = result.ensemble.members
            return result

        def probed_build_parameterization(*args, **kwargs):
            self.param = build_parameterization(*args, **kwargs)
            return self.param

        harness.run_inversion = probed_run_inversion
        harness.build_parameterization = probed_build_parameterization


def install_tracing(tracer: Tracer, harness, forward, eki) -> None:
    """Span every layer boundary the harness crosses."""
    tracer.patch(harness, "run_experiment", ROOT_SPAN)
    tracer.patch(harness, "build_model_setup", "harness.build_model_setup")
    tracer.patch(harness, "make_truth", "harness.make_truth")
    tracer.patch(harness, "_attach_data", "harness.attach_data",
                 value=lambda args, obs: obs.matrix.nbytes)
    tracer.patch(harness.Parameterization, "mean_report_field", "harness.report")
    tracer.patch(forward.DarcyProblem, "assemble", "forward.assemble")
    tracer.patch(forward.DarcyProblem, "solve", "forward.solve")
    tracer.patch(forward.SourceProblem1D, "solve", "forward.solve")
    tracer.patch(forward, "observe", "forward.observe")
    tracer.patch(eki, "select_upsilon", "eki.select_upsilon",
                 value=lambda args, result: result[1])
    tracer.patch(eki, "eki_step", "eki.eki_step",
                 value=lambda args, result: args[0].members.nbytes)

    build_parameterization = tracer.wrap(harness.build_parameterization,
                                         "harness.build_parameterization")

    def traced_build_parameterization(*args, **kwargs):
        param = build_parameterization(*args, **kwargs)
        tracer.patch(param, "sample_initial", "harness.sample_initial")
        tracer.patch(param, "decode_report", "param_maps.decode")
        tracer.patch(param.forward, "decode", "param_maps.decode")
        return param

    harness.build_parameterization = traced_build_parameterization


def read_upsilons(records_csv: Path) -> list[float]:
    """Upsilon of every iteration that made an update, from records.csv."""
    lines = records_csv.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("upsilon")
    values = [line.split(",")[column] for line in lines[1:]]
    return [float(v) for v in values if v != ""]


def forward_failures(probe: Probe, seed: int) -> list[str]:
    """Re-solve a sample of final members and check their discrete equations."""
    fwd = probe.param.forward
    problem = fwd.solver.__self__
    J = probe.final.shape[1]
    sample = np.sort(np.random.default_rng(seed).choice(J, size=min(CHECK_MEMBERS, J),
                                                        replace=False))
    failures = []
    for j in sample:
        coef = fwd.decode(probe.final[:, j])
        domain = coef.domain
        if domain.dim == 1:
            p = problem.solve(coef).values
            failures += checks.check_source1d(coef.values, p, domain.h[0], int(j))
            interior = p
        else:
            A, b = problem.assemble(coef)
            pressure = problem.solve_full(coef)
            failures += checks.check_darcy(A, b, pressure, problem.node_kappa(coef),
                                           domain.h, domain.extents, int(j))
            interior = pressure[1:-1, 1:-1].ravel()
        failures += checks.check_observed(fwd.obs.matrix @ interior,
                                          probe.outputs[-1][:, j], int(j))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import ekinv.eki as eki
    import ekinv.forward as forward
    import ekinv.harness as harness

    # A full collection scans every object the imports made (about 17 ms);
    # whether one falls into set-up or into an iteration depends on the hash
    # seed.  Frozen objects are not scanned, so collections cost what the
    # program's own objects cost.
    gc.freeze()

    out = Path(args.out)
    config = harness.load_config(args.config)
    config["experiment"]["master_seed"] = args.seed
    config["experiment"]["out_dir"] = str(out / "run")

    tracer = Tracer() if args.trace else None
    probe = Probe(tracer)
    probe.install(harness)
    if tracer is not None:
        install_tracing(tracer, harness, forward, eki)

    t_enter = time.perf_counter()
    manifest = harness.run_experiment(config)
    t_exit = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    if tracer is not None:
        tracer.write(out / "spans.jsonl")

    (init,) = manifest["initializations"]
    J = config["experiment"]["n_ensemble"]
    starts = probe.forward_starts
    failures = []
    if init["stop_reason"] != "max-iterations":
        failures.append(f"stop: expected max-iterations, got {init['stop_reason']} "
                        f"({init['message']})")
    else:
        run_dir = Path(config["experiment"]["out_dir"])
        failures += checks.check_span(probe.initial, probe.final)
        failures += checks.check_upsilon(
            probe.outputs[:-1], read_upsilons(run_dir / "init_00" / "records.csv"),
            probe.obs.y, probe.obs.gamma, config["eki"]["rho"], config["eki"]["upsilon0"])
        failures += forward_failures(probe, args.seed)
        failures += checks.check_rel_error(
            checks.read_field_file(run_dir / "init_00" / "mean_field.bin"),
            checks.read_field_file(run_dir / "truth_field.bin"),
            init["final_rel_error"])

    result = {
        "setup_s": starts[0] - t_enter if starts else None,
        "iteration_s": [b - a for a, b in zip(starts, starts[1:])],
        "run_s": t_exit - t_enter,
        "peak_rss_mb": peak_rss_mb,
        "rel_error": init["final_rel_error"],
        "stop_reason": init["stop_reason"],
        "attempted": J * len(starts),
        "failed": J * probe.failed_calls,
        "files": manifest["files"],
        "failures": failures,
    }
    (out / "round.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
