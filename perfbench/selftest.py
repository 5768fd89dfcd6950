"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that the same seed gives identical inputs,
call counts and verdicts, that traced and untraced passes make the same
calls, that every traced call left one span, and that self times add up
to the pass.  It also checks that a raising operation is counted as a
failure without ending the pass.  Exits 1 on the first difference.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile

from worker import OUT, import_gcstar, run_pass, verdict_key

SEEDS = (1, 1729)


def digest(inst):
    """Inputs of one instance, reduced to comparable values."""
    sha = hashlib.sha256()
    module, blocks = inst.data["cocycle"]
    for g in inst.gpd.arrows:
        sha.update(blocks[g].tobytes())
    return (inst.name, len(inst.gpd.arrows), inst.data["pairs"],
            sorted((str(x), w) for x, w in inst.weights.items()),
            module.dim, sha.hexdigest(), inst.data.get("mutant", (None,) * 3)[2])


def signature(workload, seed, traced):
    from harness import Harness
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup = Harness(traced)
        instances = workload.generate(setup, seed, tmp, tiny=True)
        h = Harness(traced)
        rows = run_pass(workload, h, instances)
    for row in rows:
        del row["seconds"]
    sig = {
        "inputs": [digest(i) for i in instances],
        "setup_calls": dict(setup.calls),
        "calls": dict(h.calls),
        "rows": rows,
        "verdicts": verdict_key(h),
        "checks": (h.checks, h.failed_checks, h.exit_mismatch),
    }
    return sig, h


def check_spans(name, h):
    api = [s for s in h.spans if not s[0].startswith(("op.", "instance"))]
    if len(api) != sum(h.calls.values()):
        return f"{name}: {len(api)} call spans for {sum(h.calls.values())}"
    roots = sum(end - start for _, start, end, parent, _ in h.spans
                if parent < 0)
    total = sum(h.self_times().values())
    if not math.isclose(roots, total, rel_tol=1e-9, abs_tol=1e-12):
        return f"{name}: self times sum to {total}, root spans to {roots}"
    return None


def check_failure_accounting():
    from harness import Harness
    h = Harness()

    def boom():
        raise ValueError("raised inside a battery call")

    h.op("intdis", "raises", boom)
    h.op("intdis", "passes", lambda: True)
    got = [(v.op, v.ok) for v in h.verdicts]
    if got != [("raises", False), ("passes", True)] \
            or h.layer_metrics()["intdis.failed"] != 1:
        return f"failure accounting: {got}"
    return None


def main():
    import_gcstar()
    import run
    from workloads import WORKLOADS

    problems = [check_failure_accounting()]
    if run.WORKLOADS != tuple(WORKLOADS):
        problems.append(f"run.py names {run.WORKLOADS}, workloads.py "
                        f"{tuple(WORKLOADS)}")
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            first, _ = signature(workload, seed, traced=False)
            again, _ = signature(workload, seed, traced=False)
            traced, th = signature(workload, seed, traced=True)
            if again != first:
                problems.append(f"{name} seed {seed}: reruns differ")
            if traced != first:
                problems.append(f"{name} seed {seed}: traced calls differ")
            problems.append(check_spans(f"{name} seed {seed}", th))
            print(f"{name} seed {seed}: {len(first['inputs'])} instances, "
                  f"{sum(first['calls'].values())} calls, "
                  f"{len(first['verdicts'])} operations, "
                  f"{sum(not ok for *_, ok in first['verdicts'])} failed")
    problems = [p for p in problems if p]
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
