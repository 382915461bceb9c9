"""Record reference outputs that later benchmark runs must reproduce.

    python3 perfbench/record.py --seeds 0-10 [--workload NAME ...]

Run it from the root of a source checkout. For every workload and seed it
runs one stream at the benchmark's episode counts and stores ``summary.tsv``
and the per-episode loss totals in ``perfbench/reference.json``. Record only
from a commit whose outputs are known to be right: a benchmark run fails
every stream that does not match.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import SRC, WORK, nproc


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or a range a-b")
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    path = bench.REFERENCE_PATH
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for seed in parse_seeds(args.seeds):
        for name in args.workload or sorted(WORKLOADS):
            wl = WORKLOADS[name]
            work = WORK / f"record-{name}-seed{seed}-pid{os.getpid()}"
            try:
                data_dir = work / "data"
                bench.graphstore.write_dataset(wl.dataset(seed), data_dir)
                cfg = wl.config(seed, data_dir)
                bundle, _, _ = bench.setup(data_dir, cfg)
                stream = bench.run_one_stream(bundle, cfg, work / "out")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not stream.ok:
                print(f"{name} seed {seed}: {stream.problems}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = {
                "summary_tsv": stream.summary, "loss_totals": stream.totals}
            # rewrite after every stream so an interrupted recording keeps its work
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{name} seed {seed}: final_acc={stream.final_acc} "
                  f"stream_s={stream.seconds:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
