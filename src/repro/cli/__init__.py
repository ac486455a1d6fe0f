"""The one front door to every check and experiment: ``python -m repro <command>``.

One parser, one argument vocabulary, one report writer and one
exit-code policy (:mod:`repro.cli.common`), one report shape and one
comparator (:mod:`repro.cli.report`); each subcommand module
contributes ``configure(parser)`` for its own flags and
``run(args, artifacts) -> exit code``.  README.md's "Command line"
section is the user-facing table.

Exit codes: 0 every check passed · 1 a check failed · 2 usage error,
or nothing to check.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from repro.cli.common import USAGE, Artifacts, UsageError

COMMANDS = ("bench", "sweep", "chaos", "serve", "profile", "trace", "lint", "modelcheck", "docs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    modules = {name: import_module(f"repro.cli.{name}") for name in COMMANDS}
    for name, module in modules.items():
        summary = module.__doc__.splitlines()[0].partition(" — ")[2]
        sub = subparsers.add_parser(
            name, help=summary, description=module.__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        module.configure(sub)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse has printed --help (0) or the usage error (2)
        return exit_.code
    try:
        return modules[args.command].run(args, Artifacts(args.command, getattr(args, "out", None)))
    except UsageError as err:
        print(f"python -m repro {args.command}: error: {err}", file=sys.stderr)
        return USAGE
