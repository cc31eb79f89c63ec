"""Command-line experiment runner (this text is completed from the tables).

Run any of the paper's figures, or the studies beyond them, by name::

    python -m repro.harness fig8              # Set/Get micro-benchmarks
    python -m repro.harness fig13 --full      # paper-scale TestDFSIO
    python -m repro.harness --list

Each prints its table, one PASS/FAIL line per claim and the table's
SHA-256 digest, writes all three as JSON with ``--report FILE``, and
exits 1 when a claim fails.  Quick (CI-scale) parameters are the default
(same shapes, seconds not hours); ``--full`` switches each figure to the
paper's published setup.

The soaks are seeded, gated runs, e.g.
``python -m repro.harness chaos --seeds 1,2,3 --check-determinism
--report chaos.json``: each prints one line per seed and a verdict line,
exits non-zero on any gate violation (or, with ``--check-determinism``,
on a rerun whose report digest differs), and writes its full JSON report
with ``--report FILE``.  Every soak takes ``--seed``/``--seeds``;
``--quick`` shrinks a soak to smoke-test size and explicit flags still
win.  EXPERIMENTS.md has each soak's gates and example invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys

from repro.faults.profiles import PROFILES
from repro.harness import (
    chaos,
    figures,
    gossip,
    overload,
    scale,
    scrub,
    soak,
    stripes,
)

#: the soak subcommands, in ``--list`` order.
SOAKS = {
    spec.name: spec
    for spec in (
        chaos.SPEC,
        scale.SPEC,
        overload.SPEC,
        gossip.SPEC,
        stripes.SPEC,
        scrub.SPEC,
    )
}


def _positive_mib(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %r" % text)
    return value * scale.MIB


def _seed_list(text: str) -> list:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text
        )
    if not seeds:
        raise argparse.ArgumentTypeError("expected at least one seed")
    return seeds


#: soak flags that set the config field named by their dest:
#: (flag, dest, type, metavar, help).
_CONFIG_FLAGS = (
    ("--duration", "duration", float, "SECONDS",
     "virtual seconds of faulted load"),
    ("--scheme", "scheme", str, "NAME", "resilience scheme under test"),
    ("--servers", "servers", int, "N", "cluster size"),
    ("--k", "k", int, "K", "data chunks per stripe"),
    ("--m", "m", int, "M", "parity chunks per stripe"),
    ("--bandwidth", "bandwidth", _positive_mib, "MIB_S",
     "rebuild bandwidth cap in MiB per virtual second"),
    ("--join", "join", int, "N", "servers joined mid-run"),
    ("--keys", "key_space", int, "N", "per-client key space"),
    ("--clients", "num_clients", int, "N", "workload clients"),
    ("--period", "period", float, "SECONDS",
     "SWIM protocol period in virtual seconds"),
    ("--crashes", "crashes", int, "N",
     "staggered fail-stop victims in the crash phase"),
    ("--objects", "objects", int, "N",
     "objects written per scheme in the comparison phase"),
    ("--scan-period", "scan_period", float, "SECONDS",
     "target duration of one full background scrub pass"),
    ("--audit-period", "audit_period", float, "SECONDS",
     "virtual seconds between sampling audits (0 disables them)"),
    ("--epsilon", "epsilon", float, "EPS",
     "audit certificate confidence target 1-eps"),
    ("--p-bound", "p_bound", float, "P",
     "unreadable-fraction bound the audit certifies against"),
)


def _soak_doc(spec: soak.SoakSpec) -> str:
    flag_of = {dest: flag for flag, dest, *_ in _CONFIG_FLAGS}
    flag_of.update(fault_profile="--fault-profile", protection="--no-protection")
    flags = [flag_of[field] for field in spec.flags]
    flags.extend("--" + option for option in spec.options)
    if spec.quick:
        flags.append("--quick")
    return "``%s`` — %s.\n    Its flags: %s" % (
        spec.name, spec.summary, " ".join(flags)
    )


_SOAK_DOCS = "\n\n".join(_soak_doc(spec) for spec in SOAKS.values())
__doc__ = "%s\n%s\n" % (__doc__ or "", _SOAK_DOCS)


def _traceable() -> list:
    """The figures whose runner takes ``trace_dir``."""
    return [
        spec.name
        for spec in figures.FIGURES
        if "trace_dir" in inspect.signature(spec.runner).parameters
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate a figure from the ICDCS'17 paper and check "
        "its claims, or run a seeded soak (%s)." % ", ".join(SOAKS),
        epilog=_SOAK_DOCS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "figure",
        nargs="?",
        help="experiment id (one of: %s)"
        % ", ".join([spec.name for spec in figures.FIGURES] + list(SOAKS)),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the paper's full-scale parameters (slow)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        help=(
            "export one Chrome trace JSON per run into DIR (open in "
            "Perfetto or chrome://tracing); %s only" % ", ".join(_traceable())
        ),
    )
    parser.add_argument(
        "--report", metavar="FILE", help="write the full JSON report to FILE"
    )
    group = parser.add_argument_group(
        "soak options",
        "Unset flags keep the soak's config default; each soak's flags "
        "are listed at the end.",
    )
    group.add_argument(
        "--seed", type=int, default=0, help="soak seed (default 0)"
    )
    group.add_argument(
        "--seeds",
        type=_seed_list,
        metavar="N,N,...",
        help="comma-separated seed list (overrides --seed)",
    )
    group.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test size; explicit flags still win",
    )
    group.add_argument(
        "--check-determinism",
        action="store_true",
        help="run every seed twice and require identical digests",
    )
    for flag, dest, kind, metavar, text in _CONFIG_FLAGS:
        group.add_argument(
            flag,
            dest=dest,
            type=kind,
            metavar=metavar,
            help=text,
        )
    group.add_argument(
        "--fault-profile",
        choices=sorted(PROFILES),
        help="fault profile",
    )
    # overload's two run modes: contrast needs the protected run as its base
    modes = group.add_mutually_exclusive_group()
    modes.add_argument(
        "--no-protection",
        dest="protection",
        action="store_false",
        default=None,
        help="run with admission control and the client guard disabled "
        "(demonstrates the metastable collapse)",
    )
    modes.add_argument(
        "--contrast",
        action="store_true",
        help="run each seed protected AND unprotected; pass only if "
        "protection clears the gates and its absence fails goodput",
    )
    return parser


def _run_soak(spec: soak.SoakSpec, args) -> int:
    """The one soak runner: flags -> config, suite, rerun, print, verdict."""
    overrides = dict(spec.quick) if args.quick else {}
    overrides.update(
        (field, getattr(args, field))
        for field in spec.flags
        if getattr(args, field) is not None
    )
    config = dataclasses.replace(spec.config_cls(), **overrides)
    seeds = args.seeds or [args.seed]
    options = {name: getattr(args, name) for name in spec.options}

    shape = [
        "%s=%s" % (field, getattr(config, field))
        for field in spec.config_fields
        if field != "seed"
    ]
    shape.extend("%s=%s" % item for item in options.items())
    print(
        "%s soak: %s seeds=%s" % (spec.name, " ".join(shape), seeds),
        file=sys.stderr,
    )
    suite = soak.run_suite(spec, seeds, config, **options)
    deterministic = True
    if args.check_determinism:
        rerun = soak.run_suite(spec, seeds, config, **options)
        deterministic = suite["deterministic"] = soak.same_digests(suite, rerun)

    for report in suite["reports"]:
        print(
            "seed %-6d %s  %s"
            % (
                report["config"]["seed"],
                "OK  " if report["ok"] else "FAIL",
                spec.describe(report),
            )
        )
        for line in soak.failure_lines(report):
            print("  " + line)
    _write_report(args.report, suite)
    print(
        "%s %s across %d seed(s)."
        % (spec.verdict, "HELD" if suite["ok"] else "VIOLATED", len(seeds))
    )
    if args.check_determinism:
        print(
            "Determinism check %s." % ("passed" if deterministic else "FAILED")
        )
    return 0 if suite["ok"] and deterministic else 1


def _write_report(path, report: dict) -> None:
    if path:
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("Wrote %s" % path, file=sys.stderr)


def main(argv=None) -> int:
    """Entry point: parse arguments, run the experiment, print its result."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    specs = {spec.name: spec for spec in figures.FIGURES}

    if args.list or not args.figure:
        for spec in specs.values():
            print("%-10s %s" % (spec.name, spec.title))
        for name, spec in SOAKS.items():
            print("%-10s %s" % (name, spec.summary))
        return 0

    figure = args.figure.lower()
    if figure in SOAKS:
        return _run_soak(SOAKS[figure], args)
    if figure not in specs:
        parser.error(
            "unknown experiment %r (use --list to see choices)" % args.figure
        )
    if args.trace_dir and figure not in _traceable():
        parser.error(
            "--trace-dir is supported for: %s" % ", ".join(_traceable())
        )
    print(
        "Running %s (%s scale) ..." % (figure, "full" if args.full else "quick"),
        file=sys.stderr,
    )
    spec = specs[figure]
    report = figures.run(spec, full=args.full, trace_dir=args.trace_dir)
    print(figures.render(spec, report))
    _write_report(args.report, report)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
