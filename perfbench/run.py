"""gcstar benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
        --trace 0|1

Run from the root of a source checkout; gcstar is imported from src/.
Each workload runs closed-loop, one instance at a time, in a fresh
worker process (perfbench/worker.py) with the BLAS thread count pinned
to nproc.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:

- wall_s: median wall time of one pass over the workload's instance
  list, every check run; passes repeat while the next is expected to
  end within --seconds.
- setup_s: median over five fresh processes of the time to import
  gcstar and generate every input from the seed.
- peak_rss_mb: peak RSS of the worker process.
- pass_frac: operations that passed over operations attempted, that is
  1 - fail_frac.  An operation is one battery call on one instance or
  one mutant refusal.

--trace 1 reports the per-layer metrics from traced passes that make
the same calls, and trace.overhead_s, traced minus untraced pass time.

A result is correct when no operation fails other than the known
defects pinned in workloads.py and every pass gives the same verdicts.
Seeds 1-30 were used to tune the benchmark; seed 1729 is kept for
checking later claims.  perfbench/selftest.py checks the harness itself
at tiny sizes.  Full per-instance results, sizes and spans are written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("reps-ladder", "etale-ladder", "weighted-roundtrip")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "pass_frac": "fraction", "trace.overhead_s": "s"}


def unit(metric):
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def worker_env():
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    # string hashing decides set order inside gcstar; pin it so a seed
    # gives the same calls in every process
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, *extra, timeout):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker for {args.workload} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    """Result line for one workload, as the last stdout line wants it."""
    res = run_worker(args, timeout=WORKER_TIMEOUT_S)
    if args.trace:
        metrics = res["layers"]
    else:
        setups = [res["setup_s"]] + [
            run_worker(args, "--setup-only", timeout=60)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        print(f"# setup samples: {' '.join(f'{t:.4f}' for t in setups)} s")
        metrics = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": 1.0 - res["failed"] / res["attempted"],
        }
    env = res["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']} detail={res['detail']}")
    print(f"#   attempted={res['attempted']} failed={res['failed']} "
          f"fail_frac={res['failed'] / res['attempted']:.6f} "
          f"correct={res['correct']}")
    print("#   instance: arrows pairs module_dim |S| checks ops failed "
          "seconds dense_pair_map_bytes(computed)")
    for r in res["instances"]:
        print(f"#     {r['name']}: {r['arrows']} {r['pairs']} "
              f"{r['module_dim']} {r['semigroup']} {r['checks']} {r['ops']} "
              f"{r['failed_ops']} {r['seconds']:.4f} "
              f"{r['dense_pair_map_bytes_computed']}")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {unit(name)}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "gcstar" / "__init__.py").is_file():
        print(f"error: no gcstar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        one = run_workload(argparse.Namespace(**{**vars(args),
                                                 "workload": name}))
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
