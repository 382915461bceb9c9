"""Command-line entry point.

Subcommands: ``run`` (train a stream from a config file), ``verify-theorem``
(distortion-bound sweep), ``gradcheck`` (finite-difference audit of every
training loss on both backbones), ``synth`` (write a synthetic dataset
directory), and ``export-prototypes`` (copy the TSV of the prototypes a
finished run classified session t with, the ``prototypes/session_<t>.tsv``
the run wrote into the run directory ``--run``; it reads nothing else, and
refuses a run directory that holds ``FAILED``, quoting it). A
seed comes from ``--seed``, else ``GOTHAM_SEED``, else the config's seed
(``run``) or 0. No flag may be abbreviated, so a misspelt or retired one
is an error. Exit codes: 0 success, 1 runtime failure, 2 invalid arguments
or input validation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig
from .graphstore import DatasetError, load_dataset, synth_generate, write_dataset

__all__ = ["main", "build_parser"]


def _seed(flag: int | None, fallback: int = 0) -> int:
    """``--seed`` if given, else ``GOTHAM_SEED`` if set, else ``fallback``;
    a seed from either is a non-negative integer."""
    if flag is not None:
        name, seed = "--seed", flag
    elif os.environ.get("GOTHAM_SEED"):
        name, seed = "GOTHAM_SEED", os.environ["GOTHAM_SEED"]
    else:
        return fallback
    if not str(seed).isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _out_path(out, flag: str = "--out", *, directory: bool = False) -> Path:
    """``out`` as a path; one under a file, or a file where a ``directory``
    is made, or a directory where a file is written, is rejected."""
    out = Path(out)
    parent = next((p for p in out.parents if p.exists()), None)
    if parent is not None and not parent.is_dir():
        raise ValueError(f"{flag} {out} lies under {parent}, which is a file")
    if directory and out.exists() and not out.is_dir():
        raise ValueError(f"{flag} {out} is a file; name a directory")
    if not directory and out.is_dir():
        raise ValueError(f"{flag} {out} is a directory; name the file to write")
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gotham", allow_abbrev=False,
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", allow_abbrev=False,
                         help="train and evaluate a class stream")
    run.set_defaults(handler=cmd_run)
    run.add_argument("--config", required=True, help="JSON run configuration")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed (GOTHAM_SEED also honored)")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--dataset", default=None, help="dataset directory override")
    run.add_argument("--mode", default=None, help="run mode override; gcl and "
                     "gfscil_semantic name one semantic run")
    run.add_argument("--telemetry", action="store_true",
                     help="also report each session's post-update episode "
                          "query accuracy (one more forward per episode)")

    vt = sub.add_parser("verify-theorem", allow_abbrev=False,
                        help="distortion lower-bound sweep")
    vt.set_defaults(handler=cmd_verify_theorem)
    vt.add_argument("--trials", type=int, default=1000)
    vt.add_argument("--repetitions", type=int, default=20)
    vt.add_argument("--seed", type=int, default=None)
    vt.add_argument("--widths", type=int, nargs="+", default=[1, 4, 16])
    vt.add_argument("--xis", type=float, nargs="+", default=[0.1, 0.5])
    vt.add_argument("--betas", type=float, nargs="+", default=[0.01, 0.2])
    vt.add_argument("--out", default=None, help="write the JSON report here")

    gc = sub.add_parser("gradcheck", allow_abbrev=False,
                        help="finite-difference audit of losses")
    gc.set_defaults(handler=cmd_gradcheck)
    gc.add_argument("--seed", type=int, default=None)
    gc.add_argument("--coords", type=int, default=60,
                    help="coordinates sampled per loss")
    gc.add_argument("--out", default=None)

    sy = sub.add_parser("synth", allow_abbrev=False,
                        help="generate a synthetic dataset directory")
    sy.set_defaults(handler=cmd_synth)
    sy.add_argument("--out", required=True)
    sy.add_argument("--seed", type=int, default=None)
    sy.add_argument("--blocks", type=int, default=8)
    sy.add_argument("--nodes-per-block", type=int, default=30)
    sy.add_argument("--p-in", type=float, default=0.3)
    sy.add_argument("--p-out", type=float, default=0.02)
    sy.add_argument("--dim", type=int, default=16)
    sy.add_argument("--base-classes", type=int, default=None)
    sy.add_argument("--novel-per-session", type=int, default=1)
    sy.add_argument("--zero-shot", type=int, nargs="*", default=[])
    sy.add_argument("--k", type=int, default=5)
    sy.add_argument("--separation", type=float, default=4.0)

    ex = sub.add_parser("export-prototypes", allow_abbrev=False,
                        help="write a run's evaluation prototypes as TSV")
    ex.set_defaults(handler=cmd_export_prototypes)
    ex.add_argument("--run", required=True, metavar="RUN_DIR",
                    help="run directory holding prototypes/session_<t>.tsv")
    ex.add_argument("--session", type=int, default=None,
                    help="defaults to the last session with a file")
    ex.add_argument("--out", required=True)
    return p


def cmd_run(args) -> int:
    from .trainer import run_stream
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        print(f"error: config file not found: {cfg_path}", file=sys.stderr)
        return 2
    cfg = RunConfig.from_json(cfg_path)
    if args.dataset:
        cfg = replace(cfg, dataset=args.dataset)
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.telemetry:
        cfg = replace(cfg, telemetry=True)
    cfg = replace(cfg, seed=_seed(args.seed, cfg.seed))
    _out_path(cfg.out_dir, "--out" if args.out else "out_dir", directory=True)
    if not cfg.dataset:     # Path("") is the working directory
        print("error: no dataset directory given", file=sys.stderr)
        return 2
    bundle = load_dataset(cfg.dataset)
    reports = run_stream(bundle, cfg, out_dir=cfg.out_dir)
    for r in reports:
        tag = "base" if r.session == 0 else f"s{r.session}"
        unseen = "" if r.unseen_acc is None else f"  unseen={r.unseen_acc:.4f}"
        print(f"{tag}\tclasses={r.n_classes}\toverall={r.overall:.4f}"
              f"\tseen={r.seen_acc:.4f}{unseen}")
    print(f"artifacts written to {cfg.out_dir}")
    return 0


def cmd_verify_theorem(args) -> int:
    from .theorem import default_sweep
    out = _out_path(args.out) if args.out else None
    seed = _seed(args.seed)
    result = default_sweep(trials=args.trials, repetitions=args.repetitions,
                           seed=seed, widths=tuple(args.widths),
                           xis=tuple(args.xis), betas=tuple(args.betas))
    for rep in result["reports"]:
        c = rep["config"]
        status = "pass" if rep["pass"] else "FAIL"
        print(f"N={c['n_units']:<3d} xi={c['xi']:<4g} beta={c['beta']:<5g} "
              f"delta={rep['delta_hat']:.6g} rhs={rep['rhs_appendix']:.6g} "
              f"violations={rep['violations']}/{rep['repetitions']} {status}")
    print(f"rank correlation (width vs distortion): "
          f"{result['rank_correlation_width_vs_distortion']:.3f}")
    print("ALL PASS" if result["all_pass"] else "BOUND VIOLATED")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0 if result["all_pass"] else 1


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck
    out = _out_path(args.out) if args.out else None
    seed = _seed(args.seed)
    results = run_gradcheck(seed=seed, n_coords=args.coords)
    ok = True
    for name, rep in results.items():
        status = "pass" if rep.passed else "FAIL"
        ok = ok and rep.passed
        print(f"{name:<34s} max_rel_err={rep.max_rel_err:.3e} "
              f"checked={rep.n_checked} kinks_skipped={rep.n_kink_skipped} {status}")
    if out is not None:
        payload = {name: {"max_rel_err": r.max_rel_err if math.isfinite(r.max_rel_err)
                          else None, "n_checked": r.n_checked,
                          "n_kink_skipped": r.n_kink_skipped, "pass": r.passed}
                   for name, r in results.items()}
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1, sort_keys=True,
                                  allow_nan=False) + "\n", encoding="utf-8")
    print("ALL PASS" if ok else "GRADIENT MISMATCH")
    return 0 if ok else 1


def cmd_synth(args) -> int:
    _out_path(args.out, directory=True)
    seed = _seed(args.seed)
    bundle = synth_generate(seed, args.blocks, args.nodes_per_block,
                            args.p_in, args.p_out, args.dim,
                            mean_separation=args.separation,
                            n_base=args.base_classes,
                            novel_per_session=args.novel_per_session,
                            zero_shot_classes=args.zero_shot, k_shot=args.k)
    write_dataset(bundle, args.out)
    n = bundle.graph.num_nodes
    print(f"wrote {n} nodes, {bundle.schedule.num_sessions} sessions to {args.out}")
    return 0


def cmd_export_prototypes(args) -> int:
    from .trainer import prototype_files
    out = _out_path(args.out)
    files = prototype_files(args.run)
    t = max(files, default=None) if args.session is None else args.session
    if files and not 0 <= t <= max(files):
        raise ValueError(f"session index {t} out of range [0, {max(files)}]")
    if t not in files:
        name = f"session_{'<t>' if t is None else t}.tsv"
        raise ValueError(f"{Path(args.run) / 'prototypes' / name} not found")
    if out.exists() and out.samefile(files[t]):
        raise ValueError(f"--out {out} is the file it would copy")
    out.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(files[t], out)
    print(f"wrote session {t}'s prototypes to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse's exit: 2 on a usage error, 0 on --help
        return exc.code
    try:
        return args.handler(args)
    except (DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
