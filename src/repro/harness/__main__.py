"""Command-line experiment runner (this text is completed from the table).

Run any of the paper's figures, the studies beyond them, or the soaks,
by name::

    python -m repro.harness fig8              # Set/Get micro-benchmarks
    python -m repro.harness fig13 --full      # paper-scale TestDFSIO
    python -m repro.harness chaos --seeds 1,2,3 --check-determinism
    python -m repro.harness --list

Each run prints its body (a figure's table, a soak's one line per seed
and any violation), one PASS/FAIL line per claim and its SHA-256
digest, writes every report as JSON with ``--report FILE``, and exits 1
when a claim fails (or, with ``--check-determinism``, when a rerun's
digest differs).  Figures run their quick (CI-scale) parameters unless
``--full`` asks for the paper's setup; a soak runs its config's
defaults, once per ``--seed``/``--seeds`` entry, and ``--quick`` shrinks
it to smoke-test size.  Explicit flags always win.  EXPERIMENTS.md has
every claim and example invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import repro.harness as harness
from repro.faults.profiles import PROFILES
from repro.harness import experiment, scale


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


def _declared(spec: experiment.Experiment) -> list:
    """The flag dests ``spec`` takes beyond the shared ones: config fields,
    options, seeds if seeded, ``--quick``/``--full`` if they override."""
    seeds = ("seed", "seeds") if hasattr(spec.params(), "seed") else ()
    return [*spec.flags, *spec.options, *seeds,
            *(name for name in ("quick", "full") if getattr(spec, name))]


def _doc(spec: experiment.Experiment) -> str:
    flag_of = {dest: flag for flag, dest, *_ in _CONFIG_FLAGS}
    flag_of.update(fault_profile="--fault-profile", protection="--no-protection")
    flags = [
        flag_of.get(dest, "--" + dest.replace("_", "-"))
        for dest in _declared(spec)
    ]
    return "``%s`` — %s.\n    Its flags: %s" % (
        spec.name, spec.title, " ".join(flags) or "none"
    )


_DOCS = "\n\n".join(_doc(spec) for spec in harness.EXPERIMENTS)
__doc__ = "%s\n%s\n" % (__doc__ or "", _DOCS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate a figure from the ICDCS'17 paper, or run "
        "a seeded soak, and check its claims.",
        epilog=_DOCS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "figure",
        nargs="?",
        help="experiment id (one of: %s)"
        % ", ".join(spec.name for spec in harness.EXPERIMENTS),
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
            "Perfetto or chrome://tracing); the experiments listing it "
            "below only"
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
    group.add_argument("--seed", type=int, help="soak seed (default 0)")
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
        "protection clears the claims and its absence fails goodput",
    )
    return parser


def main(argv=None) -> int:
    """Entry point: parse arguments, run the experiment, print its result."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    specs = {spec.name: spec for spec in harness.EXPERIMENTS}

    if args.list or not args.figure:
        for spec in specs.values():
            print("%-10s %s" % (spec.name, spec.title))
        return 0

    spec = specs.get(args.figure.lower())
    if spec is None:
        parser.error(
            "unknown experiment %r (use --list to see choices)" % args.figure
        )
    # a flag the experiment does not declare is an error, never dropped
    declared = _declared(spec) + ["figure", "report", "check_determinism"]
    for action in parser._actions[1:]:  # after --help
        if action.dest not in declared and (
            getattr(args, action.dest) != action.default
        ):
            parser.error("%s takes no %s (see --help)"
                         % (spec.name, action.option_strings[0]))
    overrides = dict(spec.quick) if args.quick else {}
    overrides.update(spec.full if args.full else {})
    overrides.update(
        (name, getattr(args, name))
        for name in spec.flags
        if getattr(args, name) is not None
    )
    params = spec.params(**overrides)
    # a seeded experiment runs once per seed, an unseeded one once
    runs = (
        [dataclasses.replace(params, seed=seed)
         for seed in args.seeds or [args.seed or 0]]
        if hasattr(params, "seed") else [params]
    )
    options = {name: getattr(args, name) for name in spec.options}
    shape = dict(overrides, seeds=args.seeds, **options)
    print(
        " ".join(["Running", spec.name] + [
            "%s=%s" % item for item in shape.items() if item[1] is not None
        ]),
        file=sys.stderr,
    )

    def run_all() -> list:
        return [experiment.run(spec, p, **options) for p in runs]

    reports = run_all()
    result = {"ok": all(report["ok"] for report in reports),
              "reports": reports}
    if args.check_determinism:
        result["deterministic"] = experiment.same_digests(reports, run_all())
    print("\n\n".join(experiment.render(spec, report) for report in reports))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print("Wrote %s" % args.report, file=sys.stderr)
    if args.check_determinism:
        print(
            "Determinism check %s."
            % ("passed" if result["deterministic"] else "FAILED")
        )
    return 0 if result["ok"] and result.get("deterministic", True) else 1


if __name__ == "__main__":
    sys.exit(main())
