"""gcstar CLI ladder: end-to-end wall time and peak RSS, to BENCH_cli.json.

    python3 tools/bench_cli.py [--quick] [--repeat N] [--out PATH]

Run from anywhere in a source checkout; gcstar is imported from its
src/.  Each row is one CLI command, run N times (default 3), each time
in a fresh `python -m gcstar.cli` process with its output discarded.
The rows are the CLI limits tabled in ROADMAP.md that finish within
30 s; --quick keeps the rows that took under 3 s there, for a smoke
run.  For each row the file records the command, the median, min and
max wall time, each run's peak RSS (ru_maxrss of the child, from
os.wait4) and exit code; for the whole run, the git revision, nproc,
the Python and numpy versions, and the 1, 5 and 15 minute load averages
at its start and end, since rows taken on a busy machine read slower
and a before/after pair is only comparable at like loads.  A run that
outlives 120 s is killed and records the signal as a negative exit
code.  The script exits 1 when any run exits otherwise than its row
expects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

# (wall seconds in the ROADMAP table, CLI arguments)
ROWS = (
    (2.8, "rep --preset pair:24"),
    (10.0, "rep --preset pair:32"),
    (2.5, "rep --preset group:64"),
    (20.6, "rep --preset group:128"),
    (3.0, "algebra --preset pair:12"),
    (21.5, "algebra --preset pair:16"),
    # 576 arrows; no dense-route figure, under 20 s is the target
    (20.0, "algebra --preset pair:24"),
    (0.9, "integrate --preset pair:16"),
    (2.3, "integrate --preset pair:24"),
    (1.5, "disintegrate --preset pair:16"),
    (4.4, "disintegrate --preset pair:24"),
    (0.6, "etale --preset pair:4"),
    # 1,546 bisections, under the bound on the |S| x |S| tables
    (1.5, "etale --preset pair:5"),
    (0.4, "suite"),
)
QUICK_S = 3.0
EXPECTED_EXIT = {}


def run_once(args):
    """(wall seconds, peak RSS in MB, exit code) of one CLI process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "gcstar.cli", *args],
                             cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, child.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    # reaped here, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def revision():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def loadavg():
    """The 1, 5 and 15 minute load averages of the machine."""
    return [round(v, 2) for v in os.getloadavg()]


def numpy_version():
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def bench(rows, repeat):
    results = []
    for _, command in rows:
        runs = [run_once(command.split()) for _ in range(repeat)]
        walls = [w for w, _, _ in runs]
        results.append({
            "command": f"gcstar {command}",
            "runs": repeat,
            "wall_s": {"median": round(statistics.median(walls), 4),
                       "min": round(min(walls), 4),
                       "max": round(max(walls), 4)},
            "peak_rss_mb": [round(r, 1) for _, r, _ in runs],
            "exit_codes": [c for _, _, c in runs],
        })
        print(f"{command}: median {statistics.median(walls):.2f} s, "
              f"peak RSS {max(r for _, r, _ in runs):.0f} MB, "
              f"exit {sorted({c for _, _, c in runs})}", file=sys.stderr)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only the rows under {QUICK_S:g} s")
    parser.add_argument("--repeat", type=int, default=3,
                        help="fresh processes per row (default 3)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cli.json"),
                        help="output file (default BENCH_cli.json at the "
                             "root of the checkout)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = [r for r in ROWS if r[0] < QUICK_S] if args.quick else list(ROWS)
    start = loadavg()
    results = bench(rows, args.repeat)
    doc = {
        "revision": revision(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "quick": args.quick,
        "loadavg": {"start": start, "end": loadavg()},
        "rows": results,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    failed = [f"gcstar {command}" for (_, command), r in zip(rows, doc["rows"])
              if set(r["exit_codes"]) != {EXPECTED_EXIT.get(command, 0)}]
    if failed:
        print("unexpected exit codes: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
