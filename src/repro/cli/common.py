"""What every ``python -m repro`` subcommand shares: the argument
vocabulary, the experiment-cell matrix, the report writer and reader
(the report's shape is :mod:`repro.cli.report`) and the exit codes.
Each exists once, here."""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.cli.report import SCHEMA, validate
from repro.dsm import FaultPlan
from repro.harness.experiments import FIG7_WORKLOADS

#: exit-code policy: passed / a check failed / usage error or nothing to check
OK, FAILED, USAGE = 0, 1, 2

APPS = list(FIG7_WORKLOADS)

#: fault-plan families a cell can name
PLANS = {
    "none": FaultPlan.none,
    "canonical": FaultPlan.canonical,
    "drop_retry": FaultPlan.drop_retry,
}

#: trace ring capacity in events — attribution is exact only if nothing is evicted
TRACE_RING = 1 << 20


class UsageError(Exception):
    """A bad argument value, or an invocation that selects nothing to
    check (reporting success would be a lie): one line on stderr, exit 2."""


# ---------------------------------------------------------------- arguments
def seed_set(spec: str) -> list[int]:
    """``"0,2,5-7"`` → ``[0, 2, 5, 6, 7]``; the argparse ``type=`` of ``--seeds``."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi) if dash else int(lo)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad seed set {spec!r}: expected numbers and ranges, e.g. 0,2,5-7"
            ) from None
        if last < first:
            raise argparse.ArgumentTypeError(f"bad seed set {spec!r}: {part} is an empty range")
        seeds.extend(range(first, last + 1))
    return seeds


def positive_int(text: str) -> int:
    """A count of one or more; the argparse ``type=`` of ``--procs`` and ``--requests``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a whole number") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {n})")
    return n


def report_file(path: str) -> dict:
    """An earlier report, validated; the argparse ``type=`` of a report argument."""
    try:
        return validate(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"{path} is not a schema-{SCHEMA} report: {err}") from None


#: flags that mean the same thing in every subcommand that takes them
SHARED = {
    "procs": dict(type=positive_int, default=4, metavar="N",
                  help="simulated processors (default 4)"),
    "apps": dict(nargs="+", choices=APPS + ["all"], default=APPS, metavar="APP",
                 help=f"paper apps, space-separated, from {' '.join(APPS)}, or 'all'"),
    "variants": dict(nargs="+", choices=["SC", "custom", "dynamic", "static"],
                     default=["SC", "custom"], metavar="VARIANT",
                     help="protocol plans, space-separated: SC custom (default); EM3D's "
                          "custom is named static, and only EM3D has dynamic"),
    "seeds": dict(type=seed_set, default=[0], metavar="SET",
                  help="fault-plan seeds: numbers and ranges, e.g. 0,2,5-7 (default 0)"),
    "out": dict(type=Path, default=None, metavar="PATH",
                help="where the report goes: PATH.json, or <command>.json in the directory "
                     "PATH (default <COMMAND>_<stamp>.json; serve, lint and profile write "
                     "only when asked); trace's data files land beside it (default trace-artifacts/)"),
}


def add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **SHARED[name])


def selected_apps(args) -> list[str]:
    return APPS if "all" in args.apps else args.apps


def traced_pairs(args) -> list[tuple[str, str]]:
    """The (app, variant) runs ``--apps`` × ``--variants`` select: each app
    takes the requested plans it has — EM3D's ladder names its steps
    dynamic/static (``custom`` is static there), the rest have SC/custom."""
    pairs = []
    for app in selected_apps(args):
        if app == "EM3D":
            variants = dict.fromkeys("static" if v == "custom" else v for v in args.variants)
        else:
            variants = [v for v in args.variants if v in ("SC", "custom")]
        pairs += [(app, variant) for variant in variants]
    if not pairs:
        raise UsageError(f"no app in {args.apps} has a variant in {args.variants}")
    return pairs


# ---------------------------------------------------------------- cell matrix
def build_matrix(suite: str, apps: list[str], procs: list[int], plans: list[str],
                 seeds: list[int]) -> list[dict]:
    """The app × variant × nodes × plan × seed cross product, as cells
    of ``suite`` (plain dicts: picklable, JSON-able).  A faulted plan
    runs every app under SC and under its custom protocol (EM3D's is
    named static) plus EM3D's dynamic step.  The idle ``none`` plan,
    which has no seed axis, keeps to SC and EM3D's ladder until ROADMAP
    item 3(b): an armed port's notify blocks on its ack, so TSP's and
    Water's custom cells cannot yet match the fault-free clock."""
    pairs = [(app, "SC") for app in apps]
    if "EM3D" in apps:
        pairs += [("EM3D", "dynamic"), ("EM3D", "static")]
    pairs += [(app, "custom") for app in apps if app != "EM3D"]
    cells = [
        dict(suite=suite, app=app, variant=variant, procs=n, plan=plan, seed=seed)
        for app, variant in pairs
        for n in procs
        for plan in plans
        if plan != "none" or variant != "custom"
        for seed in (seeds if plan != "none" else [0])
    ]
    if not cells:
        raise UsageError("the matrix has no cell to run")
    return cells


# ---------------------------------------------------------------- the report
def host_fingerprint() -> dict:
    """Which interpreter and platform wrote this report.  Its numbers
    are deterministic (cycles, kernel events), so this block is for
    tracing a report to where it ran, not for comparing host time
    (that is ``perf/run.py``'s job)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


#: subcommands that write their report only when ``--out`` asks for it
WRITE_WHEN_ASKED = ("serve", "lint", "profile")


class Artifacts:
    """Where one invocation's report goes (``--out``), and the one place it is written."""

    def __init__(self, command: str, out: Path | None):
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.header = {"schema": SCHEMA, "command": command, "stamp": stamp,
                       "host": host_fingerprint()}
        self.writes = out is not None or command not in WRITE_WHEN_ASKED
        if out is None:
            self.report = Path(f"{command.upper()}_{stamp.replace(':', '')}.json")
        elif out.suffix == ".json":
            self.report = out
        else:
            self.report = out / f"{command}.json"

    def write(self, runs: list[dict], checks: list[dict]) -> Path:
        """Write the report of ``runs`` and ``checks`` under the header;
        a document :func:`~repro.cli.report.validate` refuses is not written."""
        doc = validate({**self.header, "runs": runs, "checks": checks})
        self.report.parent.mkdir(parents=True, exist_ok=True)
        self.report.write_text(json.dumps(doc, indent=2) + "\n")
        return self.report

    def finish(self, runs: list[dict], checks: list[dict]) -> int:
        """Write the report, if this invocation writes one; returns the
        exit code ``checks`` make."""
        if self.writes:
            print(f"wrote {self.write(runs, checks)}", file=sys.stderr)
        return OK if all(c["ok"] for c in checks) else FAILED
