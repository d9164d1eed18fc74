"""Run one crftrack benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 35 --trace 0

--workload is battery, crowd, train, or all (each in turn, each in a child
process of its own, so that set-up, imports and peak memory are its own).
--trace 0 measures the end-to-end metrics with tracing off; --trace 1 adds
traced rounds and reports the per-layer metrics instead. Each workload's
full report (checks, decision digest, environment) is one line; the last
line is {"correct", "attempted", "failed", "metrics"}. The exit code is 1
when an output check fails and 2 when the sources are missing or a workload
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Capped before numpy loads, so that a matrix-product engine does not
# measure the thread scheduler of a small machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def workload_names() -> list[str]:
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1, write every span as JSON lines here")
    return parser.parse_args(argv)


def result_line(reports):
    """The final line; with several workloads, metric names get a workload prefix."""
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for name, value in report["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": report["units"][name]}
    return {"correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics}


def run_one(args, started: float) -> dict:
    """The workload, in this process; returns its report."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bench
    import crftrack
    if Path(crftrack.__file__).resolve().parent != src / "crftrack":
        raise SystemExit(f"perfbench: crftrack imported from {crftrack.__file__}, not {src}")
    import_s = perf_counter() - started
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=ROOT / "perfbench"))
    try:
        return bench.run_workload(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), workdir, import_s,
                                  args.spans if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_child(args, name: str) -> dict:
    """The workload in a child process, which this one waits for; returns its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans is not None:
        cmd += ["--spans", str(args.spans.with_name(f"{args.spans.stem}-{name}"
                                                    f"{args.spans.suffix}"))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
    return json.loads(lines[-2])


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "crftrack" / "__init__.py").is_file():
        print(f"perfbench: no crftrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workload_names() if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        try:
            report = run_child(args, name) if len(names) > 1 else run_one(args, started)
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        print(json.dumps(report))
        reports.append(report)
    print(json.dumps(result_line(reports)))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
