"""EKI benchmark: run one workload for a while and print its metrics.

    python3 ekibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run is a series of identical rounds.
Each round is a fresh Python process (``round.py``) with the BLAS and OpenMP
pools at one thread.  It runs the workload's single-initialization
experiment through ``ekinv.harness.run_experiment`` with master seed N.  A
run makes at least two rounds and starts another only while the longest
round so far still fits into S seconds.  Rounds with one seed must write identical
file inventories.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the rounds are traced and the object
holds the per-layer metrics.  The object also says whether every output
check passed and how many member forward evaluations were attempted and
failed.  Outputs go to ``.ekibench_out/`` under the checkout; a traced run
leaves its spans there.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("source1d-field", "darcy-exp", "darcy-channel")
ROUND_TIMEOUT_S = 150
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def run_round(workload: str, seed: int, trace: int, out: Path) -> dict:
    out.mkdir(parents=True)
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "round.py"),
           "--config", str(HERE / "workloads" / f"{workload}.ini"),
           "--seed", str(seed), "--out", str(out), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"round {out.name} exited with code {proc.returncode}")
    return json.loads((out / "round.json").read_text(encoding="utf-8"))


def end_to_end(rounds: list[dict]) -> dict:
    """Untraced metrics: medians over rounds, iterations pooled over rounds
    with the first of each round left out."""
    iterations = [t for r in rounds for t in r["iteration_s"][1:]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "iter_s": (statistics.median(iterations), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ekinv" / "__init__.py").is_file():
        print(f"ekibench: no ekinv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    out = ROOT / ".ekibench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    rounds: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    while len(rounds) < 2 or time.perf_counter() - started + longest <= args.seconds:
        t0 = time.perf_counter()
        rounds.append(run_round(args.workload, args.seed, args.trace,
                                out / f"round{len(rounds)}"))
        longest = max(longest, time.perf_counter() - t0)

    failures = [f for r in rounds for f in r["failures"]]
    failures += checks.check_inventories([r["files"] for r in rounds])
    for k in range(1, len(rounds)):   # identical to round 0's outputs
        shutil.rmtree(out / f"round{k}" / "run")
    summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
               "stop_reasons": sorted({r["stop_reason"] for r in rounds}),
               "iterations_per_round": len(rounds[0]["iteration_s"])}
    if args.trace:
        metrics, summary["traced_iter_s"] = layers.run_layers(
            [out / f"round{k}" / "spans.jsonl" for k in range(len(rounds))])
        # per-layer, not end-to-end: it changes with the seed far more than
        # any bound could allow (see README)
        metrics["harness.final_rel_error"] = (
            statistics.median(r["rel_error"] for r in rounds), "1")
    else:
        metrics = end_to_end(rounds)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(dict(summary, **result), indent=1) + "\n",
                                     encoding="utf-8")
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(" ".join(f"{key}={value}" for key, value in summary.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:>28} {value:12.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
