"""One experiment spec: the paper's figures and the soaks alike.

An :class:`Experiment` declares how to build one run's parameters, a
runner, the named :class:`Claim` predicates its report must satisfy
(each citing the panel or section of the paper it reproduces or
extends) and how to print the report's body.  :func:`run` executes one
parameter set and stamps the one report shape every experiment shares:
``{name, params, claims, ok, digest, ...}``.  :func:`render` prints the
body, one ``PASS``/``FAIL`` line per claim and the digest.

One rule makes the digest: **the digest is the report.**  It is the
SHA-256 of every block the runner returned except ``resources`` (the
host clock's numbers, which vary run to run).  ``params`` echoes the
run's parameters beside it, and ``claims``/``ok`` are functions of the
covered blocks, so any change to a virtual-clock number, an event the
report carries or a claimed value moves the digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Callable, Mapping, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class Claim:
    """One result of the paper, as a predicate over a report."""

    name: str
    #: the panel or section it reproduces, e.g. ``"Fig. 8(a)"``
    cites: str
    holds: Callable[[dict], bool]


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One figure, study or soak: how to run it and what must hold."""

    name: str
    #: one line for ``--list``
    title: str
    #: ``params(**overrides)`` -> one run's parameters; a run whose
    #: parameters carry a ``seed`` is repeated once per ``--seeds`` entry
    params: Callable[..., Any]
    #: ``runner(params, **options) -> report blocks``
    runner: Callable[..., dict]
    #: the report's body as text (its claim lines and digest follow)
    render: Callable[[dict], str]
    claims: Tuple[Claim, ...]
    #: parameter overrides ``--quick`` and ``--full`` apply (explicit
    #: flags still win)
    quick: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    full: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: parameters settable from the CLI (flag dest == parameter name)
    flags: Tuple[str, ...] = ()
    #: run modes outside the parameters (CLI flag dests), passed to the
    #: runner as keyword arguments
    options: Tuple[str, ...] = ()


def digest_of(payload: dict) -> str:
    """SHA-256 over the canonical (key-sorted) JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def run(spec: Experiment, params, **options) -> dict:
    """Run ``spec`` once at ``params``, judge its claims, digest its
    report (every block the runner returned but ``resources``)."""
    blocks = spec.runner(params, **options)
    echo = (dataclasses.asdict(params) if dataclasses.is_dataclass(params)
            else params)
    report = dict(blocks, name=spec.name, params=echo)
    claims = {claim.name: bool(claim.holds(report)) for claim in spec.claims}
    report.update(claims=claims, ok=all(claims.values()))
    report["digest"] = digest_of(
        {key: value for key, value in blocks.items() if key != "resources"}
    )
    return report


def render(spec: Experiment, report: dict) -> str:
    """The report as text: its body, one line per claim, the digest."""
    claims = "\n".join(
        "%s  %s  (%s)"
        % ("PASS" if report["claims"][claim.name] else "FAIL",
           claim.name, claim.cites)
        for claim in spec.claims
    )
    return "\n\n".join(
        (spec.render(report), claims, "digest %s" % report["digest"])
    )


def same_digests(reports: Sequence[dict], rerun: Sequence[dict]) -> bool:
    """The determinism check: every rerun reproduces its report's digest."""
    same = [first["digest"] == again["digest"]
            for first, again in zip(reports, rerun)]
    for first, again, match in zip(reports, rerun, same):
        seed = first["params"].get("seed")
        print("%s%s digest %s rerun %s -> %s" % (
            first["name"], "" if seed is None else " seed %s" % seed,
            first["digest"][:16], again["digest"][:16],
            "identical" if match else "DIVERGED",
        ), file=sys.stderr)
    return all(same)
