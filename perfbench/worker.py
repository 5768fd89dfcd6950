"""Run one workload in this process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

perfbench/run.py starts this in a fresh process per workload, so that
peak RSS belongs to the workload alone, with the BLAS thread count
pinned in the environment.  Set-up (importing gcstar and generating
every input from the seed) is timed first.  Then whole passes over the
instance list run, at least one, while the next is expected to end
within --seconds.  With
--trace 1 untraced and traced passes alternate, and the per-layer
numbers come from the traced ones.  The last stdout line is the result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_gcstar():
    """Import gcstar from the source tree next to this benchmark."""
    src = ROOT / "src"
    if not (src / "gcstar" / "__init__.py").is_file():
        raise SystemExit(f"error: no gcstar sources under {src}")
    sys.path.insert(0, str(src))
    import gcstar
    if Path(gcstar.__file__).resolve().parent != src / "gcstar":
        raise SystemExit(f"error: imported gcstar from {gcstar.__file__}")
    return gcstar


def run_pass(workload, h, instances):
    """One pass over the instances; returns a row of sizes per instance."""
    rows = []
    for inst in instances:
        checks, ops = h.checks, len(h.verdicts)
        t0 = time.perf_counter()
        with h.instance(inst.name):
            sizes = workload.run(h, inst)
        rows.append(dict(name=inst.name, seconds=time.perf_counter() - t0,
                         checks=h.checks - checks,
                         ops=len(h.verdicts) - ops,
                         failed_ops=sum(not v.ok for v in h.verdicts[ops:]),
                         **sizes))
    return rows


def verdict_key(h):
    return [(v.instance, v.op, v.ok) for v in h.verdicts]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gcstar = import_gcstar()
    from harness import Harness, LAYER_SIZES
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        setup_h = Harness(traced=bool(args.trace))
        instances = workload.generate(setup_h, args.seed, tmpdir)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        untraced, traced, rows = [], [], []
        start = time.perf_counter()
        while True:
            for phase in ((False, True) if args.trace else (False,)):
                h = Harness(traced=phase)
                t0 = time.perf_counter()
                pass_rows = run_pass(workload, h, instances)
                took = time.perf_counter() - t0
                if phase:
                    traced.append((took, h))
                else:
                    untraced.append((took, h))
                    rows.append(pass_rows)
            # stop before a pass that would end after --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break

    passes = untraced + traced
    first = passes[0][1]
    # traced and untraced passes must make the same calls and verdicts
    steady = all(verdict_key(h) == verdict_key(first)
                 and h.calls == first.calls for _, h in passes)
    unexpected = [v for v in first.failures()
                  if (v.instance, v.op) not in workload.known_defects]
    instances_out = [dict(row, seconds=statistics.median(
        r[i]["seconds"] for r in rows)) for i, row in enumerate(rows[0])]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": steady and not unexpected,
        "attempted": sum(len(h.verdicts) for _, h in passes),
        "failed": sum(len(h.failures()) for _, h in passes),
        "passes": len(untraced),
        "wall_s": statistics.median(t for t, _ in untraced),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        per_pass, setup_layers = [], setup_h.layer_metrics()
        for _, h in traced:
            m = h.layer_metrics()
            for k, v in setup_layers.items():
                m[k] += v
            for metric, key in LAYER_SIZES.items():
                m[metric] = sum(r[key] for r in rows[0])
            per_pass.append(m)
        layers = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
        layers["trace.overhead_s"] = (
            statistics.median(t for t, _ in traced) - result["wall_s"])
        result["layers"] = layers

    detail = dict(
        result,
        pass_s=[t for t, _ in untraced],
        traced_pass_s=[t for t, _ in traced],
        failures=[vars(v) for v in first.failures()],
        unexpected_failures=[vars(v) for v in unexpected],
        verdicts_steady=steady,
        instances=instances_out,
        env={
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "gcstar": gcstar.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        spans={"setup": setup_h.spans,
               "pass": traced[0][1].spans} if traced else None,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    result["env"] = detail["env"]
    result["instances"] = instances_out
    result["detail"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
