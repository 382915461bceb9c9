"""Run one workload of the gotham stream benchmark and print its metrics.

    python3 perfbench/run.py --workload gcl-dense-240 --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports gotham from ./src and
writes only under ./.perfbench_work. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exit code 2 means the checkout or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    """HEAD of the checkout's own git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):    # numpy < 1.25 prints its config only
        blas = {}
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "gotham").glob("*.py")))
    return {"git_sha": git_sha(), "nproc": nproc(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "src_gotham_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gotham" / "__init__.py").is_file():
        print(f"error: no gotham sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    meta = metadata()
    print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace_path = (WORK / f"trace-{args.workload}-seed{args.seed}.json"
                  if args.trace else None)
    try:
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work, trace_path=trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    for note in result.pop("notes"):
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
