"""Command-line experiment runner.

Subcommands:
  validate <config>      parse, validate, and echo the resolved configuration,
                         with the per-initialization memory estimate as a
                         comment
  run <config|manifest>  run all initializations, one at a time, and write
                         outputs, each solving its Darcy chunks on the usable
                         CPUs; warns when the memory estimate exceeds the
                         memory available
  sample-prior <config>  write prior field realizations as gridded CSV
  report <run-dir>       aggregate a finished run into a summary table, and
                         print why each initialization stopped short

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# one BLAS thread in this process and in the solve workers it forks, unless
# the user set a count: OpenBLAS splits long dot products over its threads,
# so the last bits of a run's files would follow the CPU count, and idle
# BLAS threads spin on the CPUs the solve workers need.  This must run before
# the first import that loads numpy.
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(variable, "1")

from .config import (ConfigError, config_from_manifest, controls_from, echo,  # noqa: E402
                     load_config, parse_seed)
from .harness import (memory_estimate, run_experiment, sample_prior_fields,  # noqa: E402
                      summarize_run)

MEMINFO = "/proc/meminfo"


def _load(path: str) -> dict:
    if path.endswith(".json"):
        return config_from_manifest(path)
    return load_config(path)


def _apply_overrides(config: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        try:
            config["experiment"]["master_seed"] = parse_seed(args.seed)
        except ConfigError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if getattr(args, "out_dir", None) is not None:
        config["experiment"]["out_dir"] = args.out_dir
    if getattr(args, "max_iter", None) is not None:
        config["eki"]["max_outer_iterations"] = args.max_iter
        try:
            controls_from(config)
        except ValueError as exc:
            raise ConfigError(f"--max-iter: {exc}") from exc


def _mib(n_bytes: float) -> str:
    return f"{n_bytes / 2**20:,.1f} MiB"


def _memory_line(config: dict) -> str:
    """The memory estimate as an INI comment line."""
    terms = memory_estimate(config)
    parts = " + ".join(f"{name} {_mib(size)}" for name, size in terms.items())
    return f"# memory estimate: {_mib(sum(terms.values()))} per initialization = {parts}"


def _mem_available() -> int | None:
    """MemAvailable of ``MEMINFO`` in bytes, or None where it cannot be read."""
    try:
        with open(MEMINFO, encoding="ascii") as handle:
            fields = dict(line.split(":", 1) for line in handle)
        return int(fields["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError, IndexError):
        return None


def _warn_if_short_of_memory(config: dict) -> None:
    need, available = sum(memory_estimate(config).values()), _mem_available()
    if available is not None and need > available:
        print(f"warning: the memory estimate is {_mib(need)}, more than the "
              f"{_mib(available)} available; the run may run out of memory", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekinv",
        description="Regularizing iterative ensemble Kalman inversion experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a configuration file")
    p_validate.add_argument("config")

    p_run = sub.add_parser("run", help="run an experiment from a config or manifest, its "
                                       "Darcy solves on the usable CPUs")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out-dir", help="override the output directory")
    p_run.add_argument("--max-iter", type=int, help="override max outer iterations")

    p_sample = sub.add_parser("sample-prior", help="write prior field realizations")
    p_sample.add_argument("config")
    p_sample.add_argument("--seed", type=int, help="override the master seed")
    p_sample.add_argument("--out-dir", help="output directory (default: prior-samples)")

    p_report = sub.add_parser("report", help="summarize a finished run directory")
    p_report.add_argument("run_dir")
    return parser


def cli(argv=None) -> int:
    """Run the command line interface; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "validate":
            config = _load(args.config)
            print(echo(config))
            print(_memory_line(config))
            return 0

        if args.command == "run":
            config = _load(args.config)
            _apply_overrides(config, args)
            _warn_if_short_of_memory(config)
            manifest = run_experiment(config)
            out_dir = config["experiment"]["out_dir"]
            n_ok = sum(init["stop_reason"] == "discrepancy"
                       for init in manifest["initializations"])
            print(f"run complete: {len(manifest['initializations'])} initializations "
                  f"({n_ok} reached the discrepancy threshold) -> {out_dir}")
            return 0

        if args.command == "sample-prior":
            config = _load(args.config)
            _apply_overrides(args=args, config=config)
            out_dir = args.out_dir or "prior-samples"
            written = sample_prior_fields(config, out_dir)
            print("\n".join(written))
            return 0

        # report
        summary = summarize_run(args.run_dir)
        print(f"{'init':>4} {'stop_reason':>14} {'iters':>6} {'misfit':>12} {'rel_error':>12} "
              f"{'median_iter_ms':>14}")
        for row in summary["rows"]:
            misfit, err, ms = ("-" if row[key] is None else f"{row[key]:{spec}}" for key, spec in
                               (("final_misfit", ".5g"), ("final_rel_error", ".5g"),
                                ("median_iter_ms", ".1f")))
            print(f"{row['index']:>4} {row['stop_reason']:>14} {row['iterations']:>6} "
                  f"{misfit:>12} {err:>12} {ms:>14}")
        for row in summary["rows"]:
            if row["message"]:
                print(f"init {row['index']}: {row['message']}")
        stats = {k: summary[k] for k in
                 ("n_discrepancy", "rel_error_min", "rel_error_median", "rel_error_max",
                  "processes")}
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
