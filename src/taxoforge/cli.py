"""Command-line entry point.

``taxoforge run`` executes the whole pipeline; one subcommand per phase
re-runs just that stage against the artifacts already on disk. Exit status 0
means the framework validated, 2 means it was built but failed its content
checks, 1 means an input, configuration, or artifact problem.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

from . import pipeline
from .errors import TaxoforgeError

PHASES = ("integrate", "similarity", "classify", "cluster", "place", "indicate", "emit")

CONFIG_ENV_VAR = "TAXOFORGE_CONFIG"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help=f"config file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--weights", help="similarity weights as l,d,c")
    parser.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="threshold override; repeatable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxoforge",
        description="Build a hierarchical public-space quality factor framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute all phases")
    _add_common(run_parser)
    run_parser.add_argument("--emit-pairs", action="store_true")
    run_parser.add_argument("--sankey", metavar="CATEGORY")
    run_parser.add_argument("--subfactors", help="comma-separated subfactor filter")

    for phase in PHASES:
        phase_parser = sub.add_parser(phase, help=f"run only the {phase} phase")
        _add_common(phase_parser)
        if phase == "similarity":
            phase_parser.add_argument("--emit-pairs", action="store_true")
        if phase == "emit":
            phase_parser.add_argument("--sankey", metavar="CATEGORY")
            phase_parser.add_argument(
                "--subfactors", help="comma-separated subfactor filter"
            )
    return parser


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        raise TaxoforgeError(
            f"no config given: pass --config or set ${CONFIG_ENV_VAR}"
        )
    config = pipeline.load_config(config_path)
    return pipeline.apply_overrides(
        config,
        out_dir=args.out,
        weights=args.weights,
        thresholds=args.threshold,
    )


def _subfactors(args: argparse.Namespace) -> list[str] | None:
    raw = getattr(args, "subfactors", None)
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log_format = "%(levelname)s %(name)s: %(message)s"
    logging.basicConfig(level=logging.INFO, format=log_format)
    try:
        if getattr(args, "subfactors", None) is not None:
            if args.sankey is None:
                raise TaxoforgeError("--subfactors needs --sankey")
            if not _subfactors(args):
                raise TaxoforgeError("--subfactors names no subfactor")
        config = _load_config(args)
        if args.command == "run":
            return pipeline.run(
                config,
                emit_pairs=args.emit_pairs,
                sankey_category=args.sankey,
                sankey_subfactors=_subfactors(args),
            )
        if args.command == "emit":
            return pipeline.phase_emit(config, args.sankey, _subfactors(args))
        if args.command == "similarity":
            pipeline.phase_similarity(config, emit_pairs=args.emit_pairs)
        else:
            getattr(pipeline, f"phase_{args.command}")(config)
        return 0
    except TaxoforgeError as exc:
        print(f"taxoforge {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
