#!/usr/bin/env python3
"""Record one perfbench snapshot as BENCH_<label>.json at the repository root.

For every workload that BENCHMARK.json declares, runs perfbench/run.py at
seed 1 for 10 seconds, once with --trace 0 (the end-to-end metrics) and once
with --trace 1 (the per-layer metrics), and keeps the last line of each run's
output, its JSON result.  The file also records the commit, os.cpu_count(),
the Python version and the line counts of src/tpcore/*.py (per module and in
total, as ``wc -l`` counts them).  Seed and run length are fixed so that every
snapshot can be compared with the others.

    python3 scripts/bench_record.py <label>
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 10.0


def last_json_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing on standard output")
    return json.loads(lines[-1])


def src_lines() -> dict:
    """Newline counts of the package's modules, by file name, and their total."""
    modules = {path.name: path.read_bytes().count(b"\n")
               for path in sorted((ROOT / "src" / "tpcore").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def assemble(label: str, commit: str, runs: dict[str, dict[str, dict]]) -> dict:
    """The BENCH_<label>.json record: ``runs[workload]["trace0" | "trace1"]``
    holds each run's result line."""
    return {
        "label": label,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": SEED,
        "seconds": SECONDS,
        "src_lines": src_lines(),
        "workloads": runs,
    }


def commit_id() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_perfbench(workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return last_json_line(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs[workload] = {f"trace{t}": run_perfbench(workload, t) for t in (0, 1)}
        print(f"{workload}: done", file=sys.stderr)
    record = assemble(args.label, commit_id(), runs)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
