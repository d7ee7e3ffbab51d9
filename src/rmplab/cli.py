"""Command line front end.

Subcommands map one-to-one onto pipeline stages; every invocation
validates the config fail-closed, runs its stage, and writes a manifest
next to the artifacts.  Exit status: 0 on success, 1 when a verification
verdict is FAIL, 2 on configuration or usage errors and on any other
error, which prints one ``error [CODE]: ...`` line and no traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import FORMATS, config_from_dict, read_config
from .errors import ConfigInvalidError, RmplabError
from .runner import STAGES, do_report, run
from .storage import write_json

_P_TARGET = {"moments": ("moments", "p"), "beta": ("beta", "p_grid"), "verify": ("condition1", "p")}


def _parse_p_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigInvalidError(f"--p: {exc}") from exc
    if not values:
        raise ConfigInvalidError("--p: expected a comma-separated list of orders")
    return values


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    if not isinstance(raw, dict):
        raise ConfigInvalidError("config root must be an object")
    raw = json.loads(json.dumps(raw))

    def section(key: str) -> dict:
        sec = raw.setdefault(key, {})
        if not isinstance(sec, dict):
            raise ConfigInvalidError(f"{key}: expected an object")
        return sec

    if args.seed is not None:
        section("ensemble")["master_seed"] = args.seed
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.out is not None:
        section("outputs")["directory"] = args.out
    if args.format is not None:
        section("outputs")["formats"] = [f.strip() for f in args.format.split(",") if f.strip()]
    if args.n_paths is not None:
        section("ensemble")["n_paths"] = args.n_paths
    if args.t_max is not None:
        section("grid")["t_max"] = args.t_max
    if getattr(args, "p", None) is not None and args.command in _P_TARGET:
        est_name, key = _P_TARGET[args.command]
        values = _parse_p_list(args.p)
        estimators = raw.setdefault("estimators", [])
        if not isinstance(estimators, list):
            raise ConfigInvalidError("estimators: expected a list")
        hit = False
        for est in estimators:
            if isinstance(est, dict) and est.get("name") == est_name:
                est[key] = values
                hit = True
        if not hit:
            estimators.append({"name": est_name, key: values})
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmplab",
        description="Monte Carlo laboratory for linear random ODEs with stationary noise",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--workers", type=int, help="override the worker count")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", help=f"comma-separated subset of {','.join(FORMATS)}")
        p.add_argument("--n-paths", type=int, dest="n_paths", help="override the ensemble size")
        p.add_argument("--t-max", type=float, dest="t_max", help="override the grid horizon")

    p_sim = sub.add_parser("simulate", help="simulate the state ensemble and store it")
    common(p_sim)

    p_mom = sub.add_parser("moments", help="quasi-norm curves of a simulated process")
    common(p_mom)
    p_mom.add_argument("--p", help="comma-separated moment orders (overrides the config)")

    p_beta = sub.add_parser("beta", help="transition-order and diffusion estimators")
    common(p_beta)
    p_beta.add_argument("--p", help="comma-separated order grid for the transition scan")

    p_ver = sub.add_parser("verify", help="boundedness, distribution and inequality checks")
    common(p_ver)
    p_ver.add_argument("--p", help="comma-separated orders for the boundedness check")

    p_con = sub.add_parser("converge", help="weak convergence / divergence diagnostics")
    common(p_con)

    p_rep = sub.add_parser("report", help="merge JSON summaries in an output directory")
    p_rep.add_argument("--out", required=True, help="output directory to aggregate")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            return _run_report(Path(args.out))
        raw = _apply_overrides(read_config(args.config), args)
        cfg = config_from_dict(raw)
        wanted = STAGES[args.command]
        if args.command != "simulate" and not any(r.name in wanted for r in cfg.estimators):
            raise ConfigInvalidError(
                f"config declares no estimator used by '{args.command}' "
                f"(expected one of: {', '.join(wanted)})"
            )
        manifest, code = run(cfg, groups=(args.command,), subcommand=args.command)
        for name, verdict in sorted(manifest["verdicts"].items()):
            print(f"{name}: {verdict}")
        print(f"wrote {len(manifest['artifacts'])} artifacts to {cfg.out_dir}")
        return code
    except RmplabError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # fail closed: exit 2, never a traceback
        print(f"error [{RmplabError.code}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _run_report(out_dir: Path) -> int:
    if not out_dir.is_dir():
        print(f"error [IO_FAILURE]: {out_dir} is not a directory", file=sys.stderr)
        return 2
    merged = do_report(out_dir)
    write_json(out_dir / "report.json", merged)
    print(f"overall: {merged['overall']}")
    return 0 if merged["overall"] == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
