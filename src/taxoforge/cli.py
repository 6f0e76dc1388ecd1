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

PHASES = (*pipeline.ARTIFACTS, "emit")

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

    helps = {"run": "execute all phases"}
    helps.update((phase, f"run only the {phase} phase") for phase in PHASES)
    for command, what in helps.items():
        command_parser = sub.add_parser(command, help=what)
        _add_common(command_parser)
        if command in ("run", "similarity"):
            command_parser.add_argument("--emit-pairs", action="store_true")
        if command in ("run", "emit"):
            command_parser.add_argument("--sankey", metavar="CATEGORY")
            command_parser.add_argument(
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


def _subfactors(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log_format = "%(levelname)s %(name)s: %(message)s"
    logging.basicConfig(level=logging.INFO, format=log_format)
    try:
        options = {}  # the options of the subcommand's parser
        if "emit_pairs" in args:
            options["emit_pairs"] = args.emit_pairs
        if "sankey" in args:
            subfactors = _subfactors(args.subfactors)
            if args.sankey == "":
                raise TaxoforgeError("--sankey names no category")
            if subfactors is not None and args.sankey is None:
                raise TaxoforgeError("--subfactors needs --sankey")
            if subfactors == []:
                raise TaxoforgeError("--subfactors names no subfactor")
            options.update(sankey_category=args.sankey, sankey_subfactors=subfactors)
        config = _load_config(args)
        name = "run" if args.command == "run" else f"phase_{args.command}"
        return getattr(pipeline, name)(config, **options) or 0
    except TaxoforgeError as exc:
        print(f"taxoforge {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
