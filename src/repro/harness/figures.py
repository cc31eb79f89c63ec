"""The paper's evaluation as one table of figure specs.

Each :class:`FigureSpec` reproduces one figure of Section VI, or one of
the studies beyond them: a runner that returns rows (dicts keyed by
column name), the ``quick`` parameters CI runs and the ``full``
parameters of the paper's setup, and named :class:`Claim` predicates over
the rows, each citing the panel or section it reproduces.  :func:`run`
executes a spec, judges every claim and digests the rows with
``soak.digest_of``, so any change to a figure's virtual-clock numbers
moves its digest.  ``python -m repro.harness <name>`` prints the table,
one PASS/FAIL line per claim and the digest, and exits 1 when a claim
fails.

Every runner is deterministic.  A study whose rows have different shapes
tags each row with its ``part``; the table prints one block per part.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.boldio.burstbuffer import BoldioSystem
from repro.boldio.dfsio import run_dfsio_boldio, run_dfsio_lustre
from repro.boldio.lustre import LustreFS
from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.ec import make_codec
from repro.ec.cost_model import CodingCostModel
from repro.harness.soak import digest_of
from repro.model import LatencyModel
from repro.network.fabric import Fabric
from repro.network.profiles import RI_QDR, profile_by_name
from repro.obs.export import write_chrome_trace
from repro.resilience.erasure import chunk_key
from repro.resilience.recovery import RepairManager
from repro.simulation import Simulator
from repro.workloads.etc import EtcSizeSampler, EtcSpec, run_etc
from repro.workloads.keys import KeyValueSource
from repro.workloads.microbench import (
    load_keys,
    run_get_benchmark,
    run_memory_pressure,
    run_set_benchmark,
)
from repro.workloads.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    YCSBSpec,
    load_phase,
    run_ycsb,
)

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 ** 3

Rows = List[dict]


@dataclass(frozen=True)
class Claim:
    """One result of the paper, as a predicate over a figure's rows."""

    name: str
    #: the panel or section it reproduces, e.g. ``"Fig. 8(a)"``
    cites: str
    holds: Callable[[Rows], bool]


@dataclass(frozen=True)
class FigureSpec:
    """One figure or study: how to run it, at which scale, what must hold."""

    name: str
    #: one line for ``--list``
    title: str
    runner: Callable[..., Rows]
    #: runner keyword arguments at CI scale and at the paper's scale
    quick: Mapping[str, Any]
    full: Mapping[str, Any]
    #: every row key in print order (``part`` heads a block, not a column)
    columns: Tuple[str, ...]
    claims: Tuple[Claim, ...]


# ---------------------------------------------------------------------------
# Running, judging and printing a spec
# ---------------------------------------------------------------------------


def run(
    spec: FigureSpec, full: bool = False, trace_dir: Optional[str] = None
) -> dict:
    """Run ``spec`` and judge its claims; returns the JSON-able report."""
    kwargs = dict(spec.full if full else spec.quick)
    if trace_dir:
        kwargs["trace_dir"] = trace_dir
    rows = spec.runner(**kwargs)
    claims = {claim.name: bool(claim.holds(rows)) for claim in spec.claims}
    return {
        "figure": spec.name,
        "scale": "full" if full else "quick",
        "rows": rows,
        "claims": claims,
        "ok": all(claims.values()),
        "digest": digest_of({"rows": rows}),
    }


def render(spec: FigureSpec, report: dict) -> str:
    """The report as text: the table, one line per claim, the digest."""
    blocks = []
    for part, group in itertools.groupby(
        report["rows"], key=lambda row: row.get("part")
    ):
        group = list(group)
        columns = [c for c in spec.columns if c in group[0] and c != "part"]
        table = format_table(
            columns, [[row[c] for c in columns] for row in group]
        )
        blocks.append(table if part is None else "%s\n%s" % (part, table))
    blocks.append(
        "\n".join(
            "%s  %s  (%s)"
            % ("PASS" if report["claims"][claim.name] else "FAIL",
               claim.name, claim.cites)
            for claim in spec.claims
        )
    )
    blocks.append("digest %s" % report["digest"])
    return "\n\n".join(blocks)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.4g" % value
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned plain-text table (paper-style results listing)."""
    cells: List[List[str]] = [[_fmt(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [
        max(len(line[col]) for line in cells) for col in range(len(headers))
    ]
    out_lines = []
    for line_index, line in enumerate(cells):
        out_lines.append(
            "  ".join(text.rjust(width) for text, width in zip(line, widths))
        )
        if line_index == 0:
            out_lines.append("  ".join("-" * width for width in widths))
    return "\n".join(out_lines)


def one(rows: Rows, **match) -> dict:
    """The single row whose columns equal ``match``."""
    found = [
        row for row in rows
        if all(row.get(key) == value for key, value in match.items())
    ]
    if len(found) != 1:
        raise LookupError("%d rows match %r" % (len(found), match))
    return found[0]


def _increasing(values: Sequence[float]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _export_trace(cluster, trace_dir: Optional[str], label: str) -> None:
    """Write one run's Chrome trace as ``<trace_dir>/<label>.trace.json``
    (open it in Perfetto, https://ui.perfetto.dev, or chrome://tracing)."""
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, "%s.trace.json" % label)
        write_chrome_trace(cluster.tracer, path, cluster.metrics)


# ---------------------------------------------------------------------------
# Figure 4: Jerasure encode/decode study
# ---------------------------------------------------------------------------

#: Fig. 4's key-value range (512 B - 1 MB), plus 256 MB, the object size
#: CRS and Liberation are designed for
FIG4_SIZES = (512, KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB, 256 * MIB)
FIG4_CODES = ("rs_van", "crs", "r6_lib")


def fig4_jerasure() -> Rows:
    """Fig. 4: stand-alone RS(3,2) coding times on the Westmere profile."""
    model = CodingCostModel()
    return [
        {
            "scheme": scheme,
            "value_size": size,
            "encode_us": model.encode_time(scheme, size, 3, 2) * 1e6,
            "decode1_us": model.decode_time(scheme, size, 3, 2, 1) * 1e6,
            "decode2_us": model.decode_time(scheme, size, 3, 2, 2) * 1e6,
        }
        for scheme in FIG4_CODES
        for size in FIG4_SIZES
    ]


def _encode_us(rows, scheme, size):
    return one(rows, scheme=scheme, value_size=size)["encode_us"]


FIG4 = FigureSpec(
    name="fig4",
    title="Fig. 4: Jerasure RS(3,2) encode and decode time, RS_Van vs CRS "
    "vs R6-Lib, 512 B - 1 MB plus 256 MB",
    runner=fig4_jerasure,
    quick={},
    full={},
    columns=("scheme", "value_size", "encode_us", "decode1_us", "decode2_us"),
    claims=(
        Claim(
            "fig4a.rs_van_fastest_encode_512b_to_1mib", "Fig. 4(a)",
            lambda rows: all(
                _encode_us(rows, "rs_van", size)
                <= min(_encode_us(rows, code, size) for code in FIG4_CODES)
                for size in FIG4_SIZES if size <= MIB
            ),
        ),
        Claim(
            "fig4a.crs_beats_rs_van_at_256mib", "Fig. 4(a)",
            lambda rows: _encode_us(rows, "crs", 256 * MIB)
            < _encode_us(rows, "rs_van", 256 * MIB),
        ),
        Claim(
            "fig4a.r6_lib_beats_rs_van_at_256mib", "Fig. 4(a)",
            lambda rows: _encode_us(rows, "r6_lib", 256 * MIB)
            < _encode_us(rows, "rs_van", 256 * MIB),
        ),
        Claim(
            "fig4b.two_failure_decode_slower_than_one", "Fig. 4(b)",
            lambda rows: all(r["decode2_us"] > r["decode1_us"] for r in rows),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figure 8: Set/Get latency micro-benchmarks
# ---------------------------------------------------------------------------

#: Figure 8 value-size sweep (512 B - 1 MB, Section VI-B).
MICRO_SIZES = (512, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, MIB)

#: The resilient configurations of Figure 8 (all tolerate 2 failures).
MICRO_SCHEMES = ("sync-rep", "async-rep", "era-ce-cd", "era-se-cd", "era-se-sd")

#: ARPE send window used by the OHB-style benches (double-buffered x2).
MICRO_WINDOW = 4


def ohb(figure, scheme, op, size, num_ops, failures=0, trace_dir=None):
    """One OHB Set or Get run on a fresh cluster; returns its result.

    ``failures`` crash the last placement servers after the load phase;
    such runs use window=1 (per-op recovery latency), the others the
    default ARPE window.  The run's trace, with ``trace_dir``, is
    ``<figure>-<op>[-degraded]-<scheme>-<size>``.
    """
    cluster = build_cluster(
        profile="ri-qdr",
        scheme=scheme,
        servers=5,
        memory_per_server=20 * GIB,
        trace=bool(trace_dir),
    )
    client = cluster.add_client(window=1 if failures else MICRO_WINDOW)
    blocking = scheme == "sync-rep"
    if op == "set":
        result = run_set_benchmark(
            cluster, client, num_ops=num_ops, value_size=size, blocking=blocking,
        )
    else:
        source = KeyValueSource()
        load_keys(cluster, client, num_ops, size, source)
        if failures:
            cluster.fail_servers(
                ["server-%d" % (4 - i) for i in range(failures)]
            )
        result = run_get_benchmark(
            cluster, client, num_ops=num_ops, value_size=size,
            blocking=blocking, preload=False, source=source,
        )
    label = "%s-%s%s" % (figure, op, "-degraded" if failures else "")
    _export_trace(cluster, trace_dir, "%s-%s-%d" % (label, scheme, size))
    return result


def fig8_microbench(num_ops: int, trace_dir: Optional[str] = None) -> Rows:
    """Figs. 8(a)-(c): OHB latency on RI-QDR, 5 servers, RS(3,2)/Rep=3.

    (a) Set and (b) Get over the whole size sweep; (c) Get with two of
    the five servers down, from 64 KB, at half the op count.
    """
    panels = (
        ("set", MICRO_SIZES, num_ops, 0),
        ("get", MICRO_SIZES, num_ops, 0),
        ("get", MICRO_SIZES[3:], num_ops // 2, 2),
    )
    rows = []
    for op, sizes, ops, failures in panels:
        for scheme in MICRO_SCHEMES:
            for size in sizes:
                result = ohb(
                    "fig8", scheme, op, size, ops, failures, trace_dir
                )
                rows.append({
                    "scheme": scheme,
                    "op": op,
                    "value_size": size,
                    "failures": failures,
                    "avg_latency_us": result.avg_latency * 1e6,
                    "p99_latency_us": result.service.p99 * 1e6,
                })
    return rows


def _avg_us(rows, scheme, op, size, failures=0):
    return one(
        rows, scheme=scheme, op=op, value_size=size, failures=failures
    )["avg_latency_us"]


FIG8 = FigureSpec(
    name="fig8",
    title="Fig. 8: OHB Set/Get latency on RI-QDR, 5 servers, RS(3,2) vs "
    "Rep=3: (a) Set, (b) Get, (c) Get with two node failures",
    runner=fig8_microbench,
    quick={"num_ops": 200},
    full={"num_ops": 1000},
    columns=(
        "scheme", "op", "value_size", "failures", "avg_latency_us",
        "p99_latency_us",
    ),
    claims=(
        Claim(
            "fig8a.era_ce_cd_1.5x_faster_than_sync_rep", "Fig. 8(a)",
            lambda rows: all(
                _avg_us(rows, "era-ce-cd", "set", size)
                < _avg_us(rows, "sync-rep", "set", size) / 1.5
                for size in MICRO_SIZES
            ),
        ),
        Claim(
            "fig8a.async_rep_faster_than_sync_rep", "Fig. 8(a)",
            lambda rows: all(
                _avg_us(rows, "async-rep", "set", size)
                < _avg_us(rows, "sync-rep", "set", size)
                for size in MICRO_SIZES
            ),
        ),
        Claim(
            "fig8a.era_se_cd_faster_than_era_ce_cd_at_1mib", "Fig. 8(a)",
            lambda rows: _avg_us(rows, "era-se-cd", "set", MIB)
            < _avg_us(rows, "era-ce-cd", "set", MIB),
        ),
        Claim(
            "fig8b.era_ce_cd_get_within_25pct_of_async_rep_from_16kib",
            "Fig. 8(b)",
            lambda rows: all(
                abs(_avg_us(rows, "era-ce-cd", "get", size)
                    - _avg_us(rows, "async-rep", "get", size))
                / _avg_us(rows, "async-rep", "get", size) < 0.25
                for size in MICRO_SIZES[2:]
            ),
        ),
        Claim(
            "fig8c.era_ce_cd_degraded_get_slower_than_async_rep_at_1mib",
            "Fig. 8(c)",
            lambda rows: _avg_us(rows, "era-ce-cd", "get", MIB, 2)
            > _avg_us(rows, "async-rep", "get", MIB, 2),
        ),
        Claim(
            "fig8c.era_se_sd_degrades_worst_at_1mib", "Fig. 8(c)",
            lambda rows: _avg_us(rows, "era-se-sd", "get", MIB, 2)
            > _avg_us(rows, "era-ce-cd", "get", MIB, 2),
        ),
        Claim(
            "fig8c.era_se_sd_1.5x_slower_than_async_rep_at_1mib", "Fig. 8(c)",
            lambda rows: _avg_us(rows, "era-se-sd", "get", MIB, 2)
            > 1.5 * _avg_us(rows, "async-rep", "get", MIB, 2),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figure 9: time-wise breakdown
# ---------------------------------------------------------------------------

FIG9_SIZES = (64 * KIB, 256 * KIB, MIB)


def fig9_breakdown(num_ops: int, trace_dir: Optional[str] = None) -> Rows:
    """Fig. 9: client-side phase breakdown for Set (no failures) and Get
    (two node failures), 64 KB - 1 MB."""
    rows = []
    for scheme in ("async-rep", "era-ce-cd", "era-se-cd", "era-se-sd"):
        for size in FIG9_SIZES:
            for op, failures in (("set", 0), ("get", 2)):
                phases = ohb(
                    "fig9", scheme, op, size, num_ops, failures, trace_dir
                ).breakdown
                rows.append({
                    "scheme": scheme,
                    "op": op,
                    "value_size": size,
                    "request_us": phases.request * 1e6,
                    "wait_us": phases.wait * 1e6,
                    "encode_us": phases.encode * 1e6,
                    "decode_us": phases.decode * 1e6,
                })
    return rows


def _each_size(rows, scheme, op, test) -> bool:
    return all(
        test(one(rows, scheme=scheme, op=op, value_size=size))
        for size in FIG9_SIZES
    )


FIG9 = FigureSpec(
    name="fig9",
    title="Fig. 9: client-side phase breakdown for Set (no failures) and "
    "Get (two node failures), 64 KB - 1 MB",
    runner=fig9_breakdown,
    quick={"num_ops": 150},
    full={"num_ops": 500},
    columns=(
        "scheme", "op", "value_size", "request_us", "wait_us", "encode_us",
        "decode_us",
    ),
    claims=(
        Claim(
            "fig9a.era_ce_cd_encodes_at_the_client", "Fig. 9(a)",
            lambda rows: _each_size(
                rows, "era-ce-cd", "set", lambda r: r["encode_us"] > 0
            ),
        ),
        Claim(
            "fig9a.era_se_cd_client_pays_no_encode", "Fig. 9(a)",
            lambda rows: _each_size(
                rows, "era-se-cd", "set", lambda r: r["encode_us"] == 0
            ),
        ),
        Claim(
            "fig9b.wait_dominates_degraded_era_ce_cd_get", "Fig. 9(b)",
            lambda rows: _each_size(
                rows, "era-ce-cd", "get",
                lambda r: r["wait_us"] > r["request_us"],
            ),
        ),
        Claim(
            "fig9b.era_ce_cd_degraded_get_decodes_at_the_client", "Fig. 9(b)",
            lambda rows: _each_size(
                rows, "era-ce-cd", "get", lambda r: r["decode_us"] > 0
            ),
        ),
        Claim(
            "fig9a.async_rep_pays_no_coding_time", "Fig. 9(a)",
            lambda rows: _each_size(
                rows, "async-rep", "set",
                lambda r: r["encode_us"] == 0 and r["decode_us"] == 0,
            ),
        ),
        Claim(
            "fig9a.era_ce_cd_encode_grows_5x_from_64kib_to_1mib", "Fig. 9(a)",
            lambda rows: one(rows, scheme="era-ce-cd", op="set", value_size=MIB)[
                "encode_us"
            ]
            > one(rows, scheme="era-ce-cd", op="set", value_size=64 * KIB)[
                "encode_us"
            ] * 5,
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figure 10: memory efficiency
# ---------------------------------------------------------------------------

FIG10_CLIENTS = (1, 8, 16, 24, 32, 40)


def fig10_memory(scale: float) -> Rows:
    """Fig. 10: % of aggregated memory used as writers scale to 40.

    Each client writes 1K x 1 MB values into 5 x 20 GB servers.  ``scale``
    shrinks both the per-client op count and the server memory by the same
    factor, preserving exactly where replication saturates (>33 clients)
    while erasure coding stays at ~56%.
    """
    ops = max(1, int(1000 * scale))
    memory = max(64 * MIB, int(20 * GIB * scale))
    rows = []
    for scheme in ("async-rep", "era-ce-cd"):
        for count in FIG10_CLIENTS:
            cluster = build_cluster(
                profile="ri-qdr", scheme=scheme, servers=5,
                memory_per_server=memory,
            )
            result = run_memory_pressure(
                cluster, num_clients=count, ops_per_client=ops,
                value_size=MIB,
            )
            rows.append({
                "scheme": scheme,
                "num_clients": count,
                "memory_utilization": result.memory_utilization,
                "lost_bytes": result.lost_bytes,
                "memory_overhead_ratio": result.memory_overhead_ratio,
            })
    return rows


def _mem(rows, scheme, clients):
    return one(rows, scheme=scheme, num_clients=clients)


FIG10 = FigureSpec(
    name="fig10",
    title="Fig. 10: memory efficiency as 1-40 clients each write 1K x 1 MB "
    "into 5 servers, Async-Rep=3 vs Era-RS(3,2)",
    runner=fig10_memory,
    quick={"scale": 0.04},
    full={"scale": 1.0},
    columns=(
        "scheme", "num_clients", "memory_utilization", "lost_bytes",
        "memory_overhead_ratio",
    ),
    claims=(
        Claim(
            "fig10.era_never_uses_more_memory_than_async_rep", "Fig. 10",
            lambda rows: all(
                _mem(rows, "era-ce-cd", n)["memory_utilization"]
                <= _mem(rows, "async-rep", n)["memory_utilization"] + 1e-9
                for n in FIG10_CLIENTS
            ),
        ),
        Claim(
            "fig10.async_rep_saturates_at_40_clients", "Fig. 10",
            lambda rows: _mem(rows, "async-rep", 40)["memory_utilization"]
            > 0.97,
        ),
        Claim(
            "fig10.async_rep_loses_data_at_40_clients", "Fig. 10",
            lambda rows: _mem(rows, "async-rep", 40)["lost_bytes"] > 0,
        ),
        Claim(
            "fig10.era_loses_nothing_at_40_clients", "Fig. 10",
            lambda rows: _mem(rows, "era-ce-cd", 40)["lost_bytes"] == 0,
        ),
        Claim(
            "fig10.era_under_75pct_at_40_clients", "Fig. 10",
            lambda rows: _mem(rows, "era-ce-cd", 40)["memory_utilization"]
            < 0.75,
        ),
        Claim(
            "fig10.savings_over_1.4x_at_40_clients", "Fig. 10",
            lambda rows: _mem(rows, "async-rep", 40)["memory_utilization"]
            / _mem(rows, "era-ce-cd", 40)["memory_utilization"] > 1.4,
        ),
        Claim(
            "fig10.async_rep_loses_nothing_at_8_clients", "Fig. 10",
            lambda rows: _mem(rows, "async-rep", 8)["lost_bytes"] == 0,
        ),
        Claim(
            "fig10.era_overhead_ratio_above_1_and_below_async_rep", "Fig. 10",
            lambda rows: 1.0
            < _mem(rows, "era-ce-cd", 8)["memory_overhead_ratio"]
            < _mem(rows, "async-rep", 8)["memory_overhead_ratio"],
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figures 11 & 12: YCSB latency and throughput
# ---------------------------------------------------------------------------

YCSB_SCHEMES = ("no-rep-ipoib", "no-rep", "async-rep", "era-ce-cd", "era-se-cd")

#: (profile, schemes): Figs. 11(a) and 12(a)/(b) run on SDSC-Comet with
#: both no-replication baselines, Figs. 11(b) and 12(c) on RI2-EDR
YCSB_PROFILES = (
    ("sdsc-comet", YCSB_SCHEMES),
    ("ri2-edr", ("async-rep", "era-ce-cd", "era-se-cd")),
)


def _ycsb_cluster(scheme: str, profile: str, trace: bool = False):
    if scheme == "no-rep-ipoib":
        return build_cluster(
            profile=profile + "-ipoib", scheme="no-rep", servers=5,
            memory_per_server=64 * GIB, trace=trace,
        )
    return build_cluster(
        profile=profile, scheme=scheme, servers=5, memory_per_server=64 * GIB,
        trace=trace,
    )


def fig11_12_ycsb(
    *,
    profile: str = "sdsc-comet",
    workloads: Sequence[YCSBSpec] = (WORKLOAD_A, WORKLOAD_B),
    schemes: Sequence[str] = YCSB_SCHEMES,
    value_sizes: Sequence[int],
    num_clients: int,
    client_hosts: int,
    record_count: int,
    ops_per_client: int,
    trace_dir: Optional[str] = None,
) -> Rows:
    """YCSB A/B on one cluster profile: one run per workload, value size
    and scheme yields both its latency (Fig. 11) and throughput (Fig. 12).
    With ``trace_dir``, each run is exported as a Chrome trace JSON file.
    """
    rows = []
    for spec_base in workloads:
        for size in value_sizes:
            spec = YCSBSpec(
                spec_base.name,
                spec_base.read_proportion,
                spec_base.update_proportion,
                record_count=record_count,
                ops_per_client=ops_per_client,
                value_size=size,
            )
            for scheme in schemes:
                cluster = _ycsb_cluster(scheme, profile, trace=bool(trace_dir))
                result = run_ycsb(
                    cluster, spec, num_clients=num_clients,
                    client_hosts=client_hosts,
                )
                _export_trace(
                    cluster, trace_dir,
                    "ycsb-%s-%s-%d" % (spec.name, scheme, size),
                )
                rows.append({
                    "profile": profile,
                    "workload": spec.name,
                    "scheme": scheme,
                    "value_size": size,
                    "throughput_ops": result.throughput,
                    "read_mean_us": (
                        result.read_latency.mean * 1e6
                        if result.read_latency else 0.0
                    ),
                    "write_mean_us": (
                        result.write_latency.mean * 1e6
                        if result.write_latency else 0.0
                    ),
                })
    return rows


def fig11_12(trace_dir: Optional[str] = None, **shape) -> Rows:
    """Figs. 11 and 12: one YCSB sweep per profile of ``YCSB_PROFILES``
    (``shape`` is :func:`fig11_12_ycsb`'s sizes and counts); traces land
    in one sub-directory per profile."""
    rows = []
    for profile, schemes in YCSB_PROFILES:
        rows += fig11_12_ycsb(
            profile=profile, schemes=schemes,
            trace_dir=trace_dir and os.path.join(trace_dir, profile), **shape
        )
    return rows


def _ycsb(rows, profile, workload, scheme) -> dict:
    """The row of the largest value size, where the paper's gaps show."""
    big = max(row["value_size"] for row in rows)
    return one(
        rows, profile=profile, workload=workload, scheme=scheme, value_size=big
    )


def _ycsb_ratio(rows, profile, workload, scheme, baseline) -> float:
    return (
        _ycsb(rows, profile, workload, scheme)["throughput_ops"]
        / _ycsb(rows, profile, workload, baseline)["throughput_ops"]
    )


def _lower_latency(column, profile, workloads):
    def holds(rows):
        return all(
            _ycsb(rows, profile, w, "era-ce-cd")[column]
            < _ycsb(rows, profile, w, "async-rep")[column]
            for w in workloads
        )
    return holds


FIG11_12 = FigureSpec(
    name="fig11-12",
    title="Figs. 11-12: YCSB A (50:50) and B (95:5) latency and throughput "
    "on SDSC-Comet and RI2-EDR",
    runner=fig11_12,
    quick={
        "value_sizes": (32 * KIB,),
        "num_clients": 24,
        "client_hosts": 6,
        "record_count": 4_000,
        "ops_per_client": 100,
    },
    full={
        "value_sizes": (1 * KIB, 4 * KIB, 16 * KIB, 32 * KIB),
        "num_clients": 150,
        "client_hosts": 10,
        "record_count": 250_000,
        "ops_per_client": 2_500,
    },
    columns=(
        "profile", "workload", "scheme", "value_size", "throughput_ops",
        "read_mean_us", "write_mean_us",
    ),
    claims=(
        Claim(
            "fig11a.era_ce_cd_lower_read_latency_than_async_rep", "Fig. 11(a)",
            _lower_latency("read_mean_us", "sdsc-comet", ("ycsb-a", "ycsb-b")),
        ),
        Claim(
            "fig11a.era_ce_cd_lower_write_latency_than_async_rep", "Fig. 11(a)",
            _lower_latency("write_mean_us", "sdsc-comet", ("ycsb-a", "ycsb-b")),
        ),
        Claim(
            "fig11b.era_ce_cd_lower_write_latency_than_async_rep", "Fig. 11(b)",
            _lower_latency("write_mean_us", "ri2-edr", ("ycsb-a",)),
        ),
        Claim(
            "fig12a.era_ce_cd_1.2x_throughput_of_async_rep", "Fig. 12(a)",
            lambda rows: _ycsb_ratio(
                rows, "sdsc-comet", "ycsb-a", "era-ce-cd", "async-rep"
            ) > 1.2,
        ),
        Claim(
            "fig12a.era_ce_cd_1.5x_throughput_of_ipoib", "Fig. 12(a)",
            lambda rows: _ycsb_ratio(
                rows, "sdsc-comet", "ycsb-a", "era-ce-cd", "no-rep-ipoib"
            ) > 1.5,
        ),
        Claim(
            "fig12a.rdma_no_rep_is_the_upper_bound", "Fig. 12(a)",
            lambda rows: _ycsb(rows, "sdsc-comet", "ycsb-a", "no-rep")[
                "throughput_ops"
            ]
            >= _ycsb(rows, "sdsc-comet", "ycsb-a", "era-ce-cd")[
                "throughput_ops"
            ] * 0.95,
        ),
        Claim(
            "fig12b.era_ce_cd_on_par_with_async_rep", "Fig. 12(b)",
            lambda rows: _ycsb_ratio(
                rows, "sdsc-comet", "ycsb-b", "era-ce-cd", "async-rep"
            ) > 0.9,
        ),
        Claim(
            "fig12b.era_ce_cd_1.5x_throughput_of_ipoib", "Fig. 12(b)",
            lambda rows: _ycsb_ratio(
                rows, "sdsc-comet", "ycsb-b", "era-ce-cd", "no-rep-ipoib"
            ) > 1.5,
        ),
        Claim(
            "fig12c.era_ce_cd_1.2x_throughput_of_async_rep", "Fig. 12(c)",
            lambda rows: _ycsb_ratio(
                rows, "ri2-edr", "ycsb-a", "era-ce-cd", "async-rep"
            ) > 1.2,
        ),
    ),
)


# ---------------------------------------------------------------------------
# Figure 13: TestDFSIO over Boldio and Lustre
# ---------------------------------------------------------------------------


def fig13_boldio(data_sizes_gb: Sequence[float], scale: float) -> Rows:
    """Fig. 13: TestDFSIO write/read throughput for 10-40 GB jobs.

    Boldio: 8 DataNodes x 4 maps over a 5-server burst buffer (24 GB
    each); Lustre-Direct: 12 DataNodes x 4 maps straight to the OSTs.
    ``scale`` multiplies the job bytes (and buffer memory) to trade
    fidelity for wall-clock.
    """
    rows = []

    def add(results, total_gb):
        rows.extend(
            {"backend": r.backend, "mode": r.mode, "total_gb": total_gb,
             "throughput_mib": r.throughput_mib}
            for r in results
        )

    for total_gb in data_sizes_gb:
        total_bytes = int(total_gb * scale * GIB)
        file_size = max(MIB, total_bytes // (8 * 4))
        memory = max(64 * MIB, int(24 * GIB * scale))
        for scheme in ("async-rep", "era-ce-cd", "era-se-cd"):
            cluster = build_cluster(
                profile="ri-qdr", scheme=scheme, servers=5,
                memory_per_server=memory,
            )
            system = BoldioSystem(cluster, LustreFS(cluster.sim, cluster.fabric))
            write = run_dfsio_boldio(system, mode="write", file_size=file_size)
            read = run_dfsio_boldio(system, mode="read", file_size=file_size)
            add((write, read), total_gb)
        sim = Simulator()
        fabric = Fabric(sim, profile_by_name("ri-qdr"))
        lustre = LustreFS(sim, fabric)
        direct_file = max(MIB, total_bytes // (12 * 4))
        write = run_dfsio_lustre(
            sim, fabric, lustre, mode="write", file_size=direct_file
        )
        read = run_dfsio_lustre(
            sim, fabric, lustre, mode="read", file_size=direct_file
        )
        add((write, read), total_gb)
    return rows


def _dfsio_ratio(backend, baseline, mode, above, below=float("inf")):
    """Claim: ``backend`` over ``baseline`` throughput is in (above, below]
    at every job size."""
    def holds(rows):
        ratios = [
            one(rows, backend=backend, mode=mode, total_gb=gb)["throughput_mib"]
            / one(rows, backend=baseline, mode=mode, total_gb=gb)[
                "throughput_mib"
            ]
            for gb in sorted({row["total_gb"] for row in rows})
        ]
        return all(above < ratio <= below for ratio in ratios)
    return holds


FIG13 = FigureSpec(
    name="fig13",
    title="Fig. 13: TestDFSIO write/read throughput over Boldio burst "
    "buffers vs Lustre-Direct, 10-40 GB jobs",
    runner=fig13_boldio,
    quick={"data_sizes_gb": (10.0, 40.0), "scale": 0.05},
    full={"data_sizes_gb": (10.0, 20.0, 30.0, 40.0), "scale": 1.0},
    columns=("backend", "mode", "total_gb", "throughput_mib"),
    claims=(
        Claim(
            "fig13a.era_ce_cd_2x_over_lustre_direct_write", "Fig. 13(a)",
            _dfsio_ratio("boldio-era-ce-cd", "lustre-direct", "write", 2.0),
        ),
        Claim(
            "fig13b.era_ce_cd_3.5x_over_lustre_direct_read", "Fig. 13(b)",
            _dfsio_ratio("boldio-era-ce-cd", "lustre-direct", "read", 3.5),
        ),
        Claim(
            "fig13a.era_ce_cd_write_matches_async_rep", "Fig. 13(a)",
            _dfsio_ratio("boldio-era-ce-cd", "boldio-async-rep", "write",
                         0.9, 1.15),
        ),
        Claim(
            "fig13b.era_ce_cd_read_within_15pct_of_async_rep", "Fig. 13(b)",
            _dfsio_ratio("boldio-era-ce-cd", "boldio-async-rep", "read", 0.85),
        ),
        Claim(
            "fig13a.era_se_cd_write_within_15pct_of_async_rep", "Fig. 13(a)",
            _dfsio_ratio("boldio-era-se-cd", "boldio-async-rep", "write", 0.85),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Ablations: the design choices the paper argues qualitatively
# ---------------------------------------------------------------------------

ABLATION_OPS = 200


def _set_latency(cluster, window, size, num_ops=ABLATION_OPS):
    client = cluster.add_client(window=window)
    result = run_set_benchmark(
        cluster, client, num_ops=num_ops, value_size=size
    )
    return result.avg_latency * 1e6


def _ablation_cluster(**kwargs):
    return build_cluster(servers=5, memory_per_server=4 * GIB, **kwargs)


def ablations() -> Rows:
    """The mechanisms behind the figures, one part each: the ARPE send
    window (Section IV-A); the 16 KB eager/rendezvous threshold behind the
    >16 KB YCSB crossover (Section VI-C); RS(K, M) geometry; the codec
    inside the full system (Fig. 4's conclusion end to end); the hybrid
    replication/erasure scheme on a mixed-size workload (Section VIII)."""
    rows = []
    for window in (1, 2, 4, 8, 16):
        cluster = _ablation_cluster(scheme="era-ce-cd")
        rows.append({
            "part": "arpe-window",
            "window": window,
            "set_avg_us": _set_latency(cluster, window, 256 * KIB),
        })
    for threshold, label in (
        (0, "all-rendezvous"), (16 * KIB, "paper-16K"), (64 * MIB, "all-eager"),
    ):
        profile = replace(RI_QDR, eager_threshold=threshold)
        era = _ablation_cluster(profile=profile, scheme="era-ce-cd")
        rep = _ablation_cluster(profile=profile, scheme="async-rep")
        # 32 KB values: era chunks (~10.9 KB) fall under 16 KB and over 0;
        # window=1 measures per-op latency, where the handshake shows
        rows.append({
            "part": "eager-threshold",
            "threshold": label,
            "era_set_us": _set_latency(era, 1, 32 * KIB),
            "asyncrep_set_us": _set_latency(rep, 1, 32 * KIB),
        })
    for k, m, servers in ((2, 1, 3), (3, 2, 5), (4, 2, 6), (6, 3, 9)):
        cluster = build_cluster(
            scheme="era-ce-cd", servers=servers, k=k, m=m,
            memory_per_server=4 * GIB,
        )
        rows.append({
            "part": "rs-geometry",
            "code": "RS(%d,%d)" % (k, m),
            "storage_x": cluster.scheme.storage_overhead,
            "tolerates": cluster.scheme.tolerated_failures,
            "set_avg_us": _set_latency(cluster, 4, 256 * KIB),
        })
    for codec in FIG4_CODES:
        cluster = _ablation_cluster(scheme="era-ce-cd", codec=codec)
        client = cluster.add_client(window=1)  # expose coding time
        result = run_set_benchmark(
            cluster, client, num_ops=ABLATION_OPS, value_size=MIB
        )
        rows.append({
            "part": "codec",
            "codec": codec,
            "set_avg_us": result.avg_latency * 1e6,
            "encode_us": result.breakdown.encode * 1e6,
        })
    for scheme in ("async-rep", "era-ce-cd", "hybrid"):
        cluster = _ablation_cluster(scheme=scheme)
        client = cluster.add_client(window=4)

        def body():
            # mixed workload: 50 small (2 KB) + 50 large (256 KB)
            handles = []
            for i in range(50):
                handles.append(client.iset("s%03d" % i, Payload.sized(2 * KIB)))
                handles.append(
                    client.iset("l%03d" % i, Payload.sized(256 * KIB))
                )
            yield client.wait(handles)

        start = cluster.sim.now
        cluster.sim.run(cluster.sim.process(body()))
        rows.append({
            "part": "hybrid",
            "scheme": scheme,
            "elapsed_ms": (cluster.sim.now - start) * 1e3,
            "stored_MiB": cluster.total_stored_bytes / MIB,
        })
    return rows


def _eager_gap(rows, label) -> float:
    row = one(rows, part="eager-threshold", threshold=label)
    return row["asyncrep_set_us"] - row["era_set_us"]


def _part(rows, part, column, **match):
    return one(rows, part=part, **match)[column]


ABLATIONS = FigureSpec(
    name="ablations",
    title="Ablations: ARPE window, eager/rendezvous threshold, RS(K,M) "
    "geometry, codec inside the system, hybrid scheme",
    runner=ablations,
    quick={},
    full={},
    columns=(
        "part", "window", "threshold", "code", "codec", "scheme", "storage_x",
        "tolerates", "set_avg_us", "era_set_us", "asyncrep_set_us",
        "encode_us", "elapsed_ms", "stored_MiB",
    ),
    claims=(
        Claim(
            "ablations.arpe_window_4_cuts_set_latency_1.5x", "Section IV-A",
            lambda rows: _part(rows, "arpe-window", "set_avg_us", window=4)
            < _part(rows, "arpe-window", "set_avg_us", window=1) / 1.5,
        ),
        Claim(
            "ablations.arpe_window_16_no_slower_than_1", "Section IV-A",
            lambda rows: _part(rows, "arpe-window", "set_avg_us", window=16)
            <= _part(rows, "arpe-window", "set_avg_us", window=1),
        ),
        Claim(
            "ablations.eager_split_widens_era_lead_over_all_eager",
            "Section VI-C",
            lambda rows: _eager_gap(rows, "paper-16K")
            > _eager_gap(rows, "all-eager"),
        ),
        Claim(
            "ablations.eager_split_widens_era_lead_over_all_rendezvous",
            "Section VI-C",
            lambda rows: _eager_gap(rows, "paper-16K")
            > _eager_gap(rows, "all-rendezvous"),
        ),
        Claim(
            "ablations.era_set_faster_with_16k_split_than_all_rendezvous",
            "Section VI-C",
            lambda rows: _part(
                rows, "eager-threshold", "era_set_us", threshold="paper-16K"
            )
            < _part(
                rows, "eager-threshold", "era_set_us", threshold="all-rendezvous"
            ),
        ),
        Claim(
            "ablations.rs_2_1_and_rs_6_3_store_1.5x", "Section I-A",
            lambda rows: _part(rows, "rs-geometry", "storage_x", code="RS(2,1)")
            == 1.5
            and abs(
                _part(rows, "rs-geometry", "storage_x", code="RS(6,3)") - 1.5
            ) < 1e-9,
        ),
        Claim(
            "ablations.rs_6_3_set_within_10pct_of_rs_2_1", "Section I-A",
            lambda rows: _part(rows, "rs-geometry", "set_avg_us", code="RS(6,3)")
            <= _part(rows, "rs-geometry", "set_avg_us", code="RS(2,1)") * 1.1,
        ),
        Claim(
            "ablations.rs_van_sets_faster_than_crs_in_system", "Fig. 4(a)",
            lambda rows: _part(rows, "codec", "set_avg_us", codec="rs_van")
            < _part(rows, "codec", "set_avg_us", codec="crs"),
        ),
        Claim(
            "ablations.rs_van_sets_faster_than_r6_lib_in_system", "Fig. 4(a)",
            lambda rows: _part(rows, "codec", "set_avg_us", codec="rs_van")
            < _part(rows, "codec", "set_avg_us", codec="r6_lib"),
        ),
        Claim(
            "ablations.hybrid_stores_under_75pct_of_async_rep", "Section VIII",
            lambda rows: _part(rows, "hybrid", "stored_MiB", scheme="hybrid")
            < _part(rows, "hybrid", "stored_MiB", scheme="async-rep") * 0.75,
        ),
    ),
)


# ---------------------------------------------------------------------------
# Section III: the latency models against the simulator
# ---------------------------------------------------------------------------


def _single_op_time(scheme, op, size):
    cluster = build_cluster(
        scheme=scheme, servers=5, memory_per_server=4 * GIB
    )
    client = cluster.add_client(window=1)

    def body():
        yield from client.set("key", Payload.sized(size))

    cluster.sim.run(cluster.sim.process(body()))
    set_time = cluster.sim.now
    if op == "set":
        return set_time
    start = cluster.sim.now

    def read():
        yield from client.get("key")

    cluster.sim.run(cluster.sim.process(read()))
    return cluster.sim.now - start


def model_validation() -> Rows:
    """Single blocking ops in the simulator beside Eqs. 2-8 (all us), and
    the storage-efficiency gain of Section I-A: predicted vs the stored
    bytes of 20 x 1 MB written under Async-Rep=3 and RS(3,2)."""
    model = LatencyModel(RI_QDR)
    rows = []
    for size in (4 * KIB, 64 * KIB, MIB):
        rows.append({
            "part": "latency",
            "size": size,
            "eq2_sync_set": model.sync_rep_set(size, 3) * 1e6,
            "sim_sync_set": _single_op_time("sync-rep", "set", size) * 1e6,
            "eq6_async_set": model.async_rep_set(size, 3) * 1e6,
            "sim_async_set": _single_op_time("async-rep", "set", size) * 1e6,
            "eq3_era_set": model.era_set(size, 3, 2) * 1e6,
            "eq7_era_set": model.era_set_overlapped(size, 3, 2) * 1e6,
            "sim_era_set": _single_op_time("era-ce-cd", "set", size) * 1e6,
            "eq4_rep_get": model.rep_get(size) * 1e6,
            "sim_rep_get": _single_op_time("async-rep", "get", size) * 1e6,
            "eq8_era_get": model.era_get_overlapped(size, 3, 2, erased=0) * 1e6,
            "sim_era_get": _single_op_time("era-ce-cd", "get", size) * 1e6,
        })
    stored = {}
    for scheme in ("async-rep", "era-ce-cd"):
        cluster = build_cluster(
            scheme=scheme, servers=5, memory_per_server=4 * GIB
        )
        client = cluster.add_client()

        def body():
            for i in range(20):
                yield from client.set("k%d" % i, Payload.sized(MIB))

        cluster.sim.run(cluster.sim.process(body()))
        stored[scheme] = cluster.total_stored_bytes
    rows.append({
        "part": "storage",
        "predicted_gain": model.storage_efficiency_gain(3, 3, 2),
        "measured_gain": stored["async-rep"] / stored["era-ce-cd"],
    })
    return rows


def _each_latency_row(test):
    return lambda rows: all(test(r) for r in rows if r["part"] == "latency")


MODEL = FigureSpec(
    name="model",
    title="Section III: the latency models (Eqs. 2-8) and the storage "
    "efficiency gain against the simulator",
    runner=model_validation,
    quick={},
    full={},
    columns=(
        "part", "size", "eq2_sync_set", "sim_sync_set", "eq6_async_set",
        "sim_async_set", "eq3_era_set", "eq7_era_set", "sim_era_set",
        "eq4_rep_get", "sim_rep_get", "eq8_era_get", "sim_era_get",
        "predicted_gain", "measured_gain",
    ),
    claims=(
        # the simulator adds response trips and software costs, so each
        # op lands above the one-way model, within a bounded multiple
        Claim(
            "model.eq2_below_simulated_sync_rep_set", "Section III",
            _each_latency_row(lambda r: r["eq2_sync_set"] < r["sim_sync_set"]),
        ),
        Claim(
            "model.sync_rep_set_within_3x_eq2", "Section III",
            _each_latency_row(
                lambda r: r["sim_sync_set"] < 3 * r["eq2_sync_set"] + 60
            ),
        ),
        Claim(
            "model.async_rep_set_within_eq6_bounds", "Section III",
            _each_latency_row(
                lambda r: r["eq6_async_set"] < r["sim_async_set"]
                < r["eq6_async_set"] * 1.25 + 25
            ),
        ),
        Claim(
            "model.async_rep_set_beats_sync_rep", "Section III",
            _each_latency_row(lambda r: r["sim_async_set"] < r["sim_sync_set"]),
        ),
        Claim(
            "model.era_set_within_eq3_plus_30us", "Section III",
            _each_latency_row(
                lambda r: r["sim_era_set"] < r["eq3_era_set"] + 30
            ),
        ),
        Claim(
            "model.eq7_floors_era_set", "Section III",
            _each_latency_row(lambda r: r["sim_era_set"] > r["eq7_era_set"]),
        ),
        Claim(
            "model.eq4_floors_rep_get", "Section III",
            _each_latency_row(lambda r: r["sim_rep_get"] > r["eq4_rep_get"]),
        ),
        Claim(
            "model.eq8_floors_era_get", "Section III",
            _each_latency_row(lambda r: r["sim_era_get"] > r["eq8_era_get"]),
        ),
        Claim(
            "model.storage_gain_within_5pct_of_prediction", "Section I-A",
            lambda rows: abs(
                one(rows, part="storage")["measured_gain"]
                - one(rows, part="storage")["predicted_gain"]
            ) / one(rows, part="storage")["predicted_gain"] < 0.05,
        ),
    ),
)


# ---------------------------------------------------------------------------
# Section VI-D: recovery overhead (the paper's declared future work)
# ---------------------------------------------------------------------------

RECOVERY_KEYS = 150


def _repair(
    cluster, victims: Sequence[str], keys
) -> Tuple[RepairManager, float]:
    """Rebuild crashed ``victims``' chunks of ``keys``, one victim at a
    time through one manager; returns it and the repair's virtual
    seconds."""
    repair = RepairManager(cluster, cluster.scheme)
    start = cluster.sim.now
    for victim in victims:
        cluster.sim.run(
            cluster.sim.process(repair.repair_server(victim, keys))
        )
    return repair, cluster.sim.now - start


def _loaded(servers: int, keys: int, size: int, **kwargs):
    """A fresh Era-CE-CD cluster holding ``keys`` values of ``size`` bytes."""
    cluster = build_cluster(
        scheme="era-ce-cd", servers=servers, memory_per_server=4 * GIB,
        **kwargs,
    )
    source = KeyValueSource()
    load_keys(cluster, cluster.add_client(), keys, size, source)
    return cluster, [source.key(i) for i in range(keys)]


def recovery_overhead() -> Rows:
    """Healthy vs degraded vs repaired Get latency and the repair itself
    (256 KB, 1 of 6 nodes down); repair time vs value size; YCSB-B
    throughput with one node down; RS(6,4) vs LRC(6,2,2) repair."""
    rows = []
    cluster = build_cluster(
        scheme="era-ce-cd", servers=6, memory_per_server=4 * GIB
    )
    client = cluster.add_client(window=1)
    source = KeyValueSource()
    load_keys(cluster, client, RECOVERY_KEYS, 256 * KIB, source)
    keys = [source.key(i) for i in range(RECOVERY_KEYS)]

    def get_phase(phase):
        result = run_get_benchmark(
            cluster, client, num_ops=RECOVERY_KEYS, value_size=256 * KIB,
            preload=False, source=source,
        )
        rows.append({"part": "phases", "phase": phase,
                     "get_avg_us": result.avg_latency * 1e6})

    get_phase("healthy")
    cluster.servers["server-2"].fail()
    get_phase("degraded")
    repair, seconds = _repair(cluster, ["server-2"], keys)
    get_phase("repaired")
    rows.append({
        "part": "repair",
        "repaired_keys": repair.repaired_keys,
        "affected_keys": sum(
            "server-2" in cluster.scheme.placement(cluster.ring, key)
            for key in keys
        ),
        "repaired_MiB": repair.repaired_bytes / MIB,
        "repair_seconds": seconds,
        "MiB_per_sec": repair.repaired_bytes / MIB / seconds,
    })

    # repair moves K reads + 1 write per lost chunk: cost tracks D
    for size in (64 * KIB, 256 * KIB, MIB):
        cluster, keys = _loaded(6, 40, size)
        cluster.servers["server-1"].fail()
        repair, seconds = _repair(cluster, ["server-1"], keys)
        rows.append({"part": "repair-cost", "value_size": size,
                     "repaired": repair.repaired_keys, "seconds": seconds})

    spec = YCSBSpec(
        "ycsb-b", 0.95, 0.05, record_count=4_000, ops_per_client=100,
        value_size=32 * KIB,
    )
    for scheme in ("async-rep", "era-ce-cd"):
        for failed in (0, 1):
            cluster = build_cluster(
                scheme=scheme, servers=5, memory_per_server=8 * GIB
            )
            if failed:
                # load first so the failure hits real data
                load_phase(cluster, spec, loader_count=4)
                cluster.fail_servers(["server-4"])
                result = run_ycsb(
                    cluster, spec, num_clients=16, client_hosts=4, load=False,
                )
            else:
                result = run_ycsb(
                    cluster, spec, num_clients=16, client_hosts=4,
                    loader_count=4,
                )
            rows.append({
                "part": "online", "scheme": scheme, "failed_nodes": failed,
                "tput_ops_s": result.throughput,
                "read_us": result.read_latency.mean * 1e6,
            })

    # RS(6,4) and LRC(6,2,2) store the same 10/6 x; RS repair reads the
    # whole value (K chunks), LRC only the local group
    for codec, label in (("rs_van", "RS(6,4)"), ("lrc", "LRC(6,2,2)")):
        cluster, keys = _loaded(11, 60, 256 * KIB, codec=codec, k=6, m=4)
        cluster.servers["server-1"].fail()
        repair, seconds = _repair(cluster, ["server-1"], keys)
        rows.append({
            "part": "lrc", "code": label, "repaired": repair.repaired_keys,
            "local_repairs": repair.local_repairs,
            "read_MiB": repair.bytes_read_for_repair / MIB,
            "time_ms": seconds * 1e3,
        })

    # the maximum tolerable failures (m = 2): both victims restart empty
    # and are repaired one after the other.  A key that lost a chunk on
    # each is decoded once whenever the first gather saw the second miss.
    victims = ["server-1", "server-2"]
    cluster, keys = _loaded(6, RECOVERY_KEYS, 256 * KIB)
    cluster.fail_servers(victims)
    cluster.recover_servers(victims)
    repair, seconds = _repair(cluster, victims, keys)
    scheme = cluster.scheme
    affected = [
        key for key in keys
        if set(victims) & set(scheme.placement(cluster.ring, key))
    ]
    rows.append({
        "part": "double-failure",
        "affected_keys": len(affected),
        "whole_keys": sum(_whole(cluster, key) for key in affected),
        "read_MiB": repair.bytes_read_for_repair / MIB,
        "repaired_MiB": repair.repaired_bytes / MIB,
        "read_per_restored": (
            repair.bytes_read_for_repair / repair.repaired_bytes
        ),
        "time_ms": seconds * 1e3,
    })
    return rows


def _whole(cluster, key: str) -> bool:
    """Every chunk of ``key`` held where the scheme locates it, no two on
    one node."""
    holders = cluster.scheme.chunk_servers(cluster.ring, key)
    return len(set(holders)) == len(holders) and all(
        cluster.servers[name].cache.peek(chunk_key(key, index)) is not None
        for index, name in enumerate(holders)
    )


def _phase_us(rows, phase):
    return one(rows, part="phases", phase=phase)["get_avg_us"]


def _online(rows, scheme, failed):
    return one(rows, part="online", scheme=scheme, failed_nodes=failed)[
        "tput_ops_s"
    ]


def _lrc(rows, code, column):
    return one(rows, part="lrc", code=code)[column]


RECOVERY = FigureSpec(
    name="recovery",
    title="Section VI-D: recovery overhead: degraded and repaired Gets, "
    "repair cost, YCSB-B under failure, LRC vs RS repair",
    runner=recovery_overhead,
    quick={},
    full={},
    columns=(
        "part", "phase", "scheme", "code", "value_size", "failed_nodes",
        "get_avg_us", "repaired_keys", "affected_keys", "repaired_MiB",
        "repair_seconds", "MiB_per_sec", "repaired", "local_repairs",
        "read_MiB", "seconds", "time_ms", "tput_ops_s", "read_us",
        "whole_keys", "read_per_restored",
    ),
    claims=(
        Claim(
            "recovery.degraded_get_slower_than_healthy", "Section VI-D",
            lambda rows: _phase_us(rows, "degraded")
            > _phase_us(rows, "healthy"),
        ),
        Claim(
            "recovery.repair_restores_get_latency", "Section VI-D",
            lambda rows: _phase_us(rows, "repaired")
            < _phase_us(rows, "degraded"),
        ),
        Claim(
            "recovery.repaired_get_within_20pct_of_healthy", "Section VI-D",
            lambda rows: _phase_us(rows, "repaired")
            < _phase_us(rows, "healthy") * 1.2,
        ),
        Claim(
            "recovery.every_affected_key_repaired", "Section VI-D",
            lambda rows: one(rows, part="repair")["repaired_keys"]
            == one(rows, part="repair")["affected_keys"],
        ),
        Claim(
            "recovery.repair_time_grows_with_value_size", "Section VI-D",
            lambda rows: _increasing(
                [r["seconds"] for r in rows if r["part"] == "repair-cost"]
            ),
        ),
        Claim(
            "recovery.era_ce_cd_keeps_half_throughput_with_a_node_down",
            "Section VI-D",
            lambda rows: _online(rows, "era-ce-cd", 1)
            > 0.5 * _online(rows, "era-ce-cd", 0),
        ),
        Claim(
            "recovery.async_rep_keeps_half_throughput_with_a_node_down",
            "Section VI-D",
            lambda rows: _online(rows, "async-rep", 1)
            > 0.5 * _online(rows, "async-rep", 0),
        ),
        Claim(
            "recovery.a_failure_costs_era_ce_cd_throughput", "Section VI-D",
            lambda rows: _online(rows, "era-ce-cd", 1)
            < _online(rows, "era-ce-cd", 0),
        ),
        Claim(
            "recovery.rs_has_no_local_repairs", "Section VIII",
            lambda rows: _lrc(rows, "RS(6,4)", "local_repairs") == 0,
        ),
        # data and local-parity chunks (8 of 10 indices) repair locally;
        # lost global parities still need the full decode
        Claim(
            "recovery.lrc_repairs_70pct_of_keys_locally", "Section VIII",
            lambda rows: _lrc(rows, "LRC(6,2,2)", "local_repairs")
            > 0.7 * _lrc(rows, "LRC(6,2,2)", "repaired"),
        ),
        Claim(
            "recovery.lrc_reads_under_75pct_of_rs_bytes", "Section VIII",
            lambda rows: _lrc(rows, "LRC(6,2,2)", "read_MiB")
            < _lrc(rows, "RS(6,4)", "read_MiB") * 0.75,
        ),
        Claim(
            "recovery.lrc_repairs_faster_than_rs", "Section VIII",
            lambda rows: _lrc(rows, "LRC(6,2,2)", "time_ms")
            < _lrc(rows, "RS(6,4)", "time_ms"),
        ),
        # RS(3,2) reads k = 3 bytes per byte restored when each lost
        # chunk is rebuilt from its own decode
        Claim(
            "recovery.double_failure_reads_below_k", "Section VI-D",
            lambda rows: one(rows, part="double-failure")["read_per_restored"]
            < 3.0,
        ),
        Claim(
            "recovery.double_failure_every_key_repaired", "Section VI-D",
            lambda rows: one(rows, part="double-failure")["whole_keys"]
            == one(rows, part="double-failure")["affected_keys"],
        ),
    ),
)


# ---------------------------------------------------------------------------
# Section VIII: the future-work codecs head to head
# ---------------------------------------------------------------------------

#: codecs with comparable roles at (k=6, m=4) on 11 servers: the MDS
#: baseline, 2 local + 2 global parities, and the XOR-only fountain
FUTURE_CODECS = ("rs_van", "lrc", "lt")


def future_codecs() -> Rows:
    """RS vs LRC vs LT at (k=6, m=4): storage, guaranteed tolerance and
    1 MB coding cost, then repairing one failed node (40 x 256 KB)."""
    model = CodingCostModel()
    rows = []
    for name in FUTURE_CODECS:
        codec = make_codec(name, 6, 4)
        rows.append({
            "part": "tradeoff",
            "codec": name,
            "storage_x": codec.storage_overhead,
            "guaranteed": codec.tolerated_failures,
            "encode_us_1MB": model.encode_time(name, MIB, 6, 4) * 1e6,
            "decode1_us_1MB": model.decode_time(name, MIB, 6, 4, 1) * 1e6,
        })
    for name in FUTURE_CODECS:
        cluster, keys = _loaded(11, 40, 256 * KIB, codec=name, k=6, m=4)
        cluster.servers["server-2"].fail()
        repair, seconds = _repair(cluster, ["server-2"], keys)
        rows.append({
            "part": "repair",
            "codec": name,
            "repaired": repair.repaired_keys,
            "local": repair.local_repairs,
            "read_MiB": repair.bytes_read_for_repair / MIB,
            "time_ms": seconds * 1e3,
        })
    return rows


def _codec(rows, part, name, column):
    return one(rows, part=part, codec=name)[column]


CODECS = FigureSpec(
    name="codecs",
    title="Section VIII: future-work codecs RS vs LRC vs LT at (k=6, m=4): "
    "guarantees, coding cost, repair traffic",
    runner=future_codecs,
    quick={},
    full={},
    columns=(
        "part", "codec", "storage_x", "guaranteed", "encode_us_1MB",
        "decode1_us_1MB", "repaired", "local", "read_MiB", "time_ms",
    ),
    claims=(
        Claim(
            "codecs.rs_van_guarantees_4_failures", "Section VIII",
            lambda rows: _codec(rows, "tradeoff", "rs_van", "guaranteed") == 4,
        ),
        # maximally recoverable LRC: r + 1 = 3
        Claim(
            "codecs.lrc_guarantees_3_failures", "Section VIII",
            lambda rows: _codec(rows, "tradeoff", "lrc", "guaranteed") == 3,
        ),
        Claim(
            "codecs.lt_guarantees_at_least_1_failure", "Section VIII",
            lambda rows: _codec(rows, "tradeoff", "lt", "guaranteed") >= 1,
        ),
        Claim(
            "codecs.lt_encodes_faster_than_rs_van", "Section VIII",
            lambda rows: _codec(rows, "tradeoff", "lt", "encode_us_1MB")
            < _codec(rows, "tradeoff", "rs_van", "encode_us_1MB"),
        ),
        Claim(
            "codecs.equal_storage_at_k6_m4", "Section VIII",
            lambda rows: len({
                _codec(rows, "tradeoff", name, "storage_x")
                for name in FUTURE_CODECS
            }) == 1,
        ),
        Claim(
            "codecs.lrc_repairs_locally", "Section VIII",
            lambda rows: _codec(rows, "repair", "lrc", "local") > 0,
        ),
        Claim(
            "codecs.only_lrc_repairs_locally", "Section VIII",
            lambda rows: _codec(rows, "repair", "rs_van", "local") == 0
            and _codec(rows, "repair", "lt", "local") == 0,
        ),
        Claim(
            "codecs.lrc_reads_fewer_bytes_than_rs_van", "Section VIII",
            lambda rows: _codec(rows, "repair", "lrc", "read_MiB")
            < _codec(rows, "repair", "rs_van", "read_MiB"),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Section VIII: larger-scale workloads
# ---------------------------------------------------------------------------

#: (servers, k, m, clients): storage overhead stays within [1.5x, 1.67x]
SCALEOUT_SIZES = ((5, 3, 2, 15), (10, 6, 4, 30), (15, 9, 6, 45))


def scaleout() -> Rows:
    """YCSB-A (32 KB) as the cluster grows 5 -> 10 -> 15 servers, with
    RS(K, M) widened and the client population grown proportionally."""
    spec = YCSBSpec(
        "ycsb-a", 0.5, 0.5, record_count=6_000, ops_per_client=120,
        value_size=32 * KIB,
    )
    rows = []
    for servers, k, m, clients in SCALEOUT_SIZES:
        for scheme in ("async-rep", "era-ce-cd"):
            cluster = build_cluster(
                scheme=scheme, servers=servers, k=k, m=m,
                memory_per_server=8 * GIB,
            )
            result = run_ycsb(
                cluster, spec, num_clients=clients,
                client_hosts=max(5, clients // 3),
            )
            rows.append({
                "servers": servers,
                "scheme": scheme,
                "clients": clients,
                "tput_ops_s": result.throughput,
                "imbalance": cluster.stats()["load_imbalance"],
            })
    return rows


def _tput(rows, scheme):
    """servers -> throughput for ``scheme``, in cluster-size order."""
    return [
        one(rows, servers=servers, scheme=scheme)["tput_ops_s"]
        for servers, *_ in SCALEOUT_SIZES
    ]


SCALEOUT = FigureSpec(
    name="scaleout",
    title="Section VIII: scale-out from 5 to 15 servers with RS(K,M) "
    "widened, YCSB-A 32 KB, Era-CE-CD vs Async-Rep",
    runner=scaleout,
    quick={},
    full={},
    columns=("servers", "scheme", "clients", "tput_ops_s", "imbalance"),
    claims=(
        Claim(
            "scaleout.era_ce_cd_throughput_grows_with_the_cluster",
            "Section VIII",
            lambda rows: _increasing(_tput(rows, "era-ce-cd")),
        ),
        Claim(
            "scaleout.async_rep_throughput_grows_with_the_cluster",
            "Section VIII",
            lambda rows: _increasing(_tput(rows, "async-rep")),
        ),
        # >= 70% scaling efficiency from 5 to 15 servers
        Claim(
            "scaleout.era_ce_cd_2.1x_from_5_to_15_servers", "Section VIII",
            lambda rows: _tput(rows, "era-ce-cd")[2]
            > 2.1 * _tput(rows, "era-ce-cd")[0],
        ),
        Claim(
            "scaleout.era_ce_cd_beats_async_rep_at_every_size", "Section VIII",
            lambda rows: all(
                era > rep
                for era, rep in zip(
                    _tput(rows, "era-ce-cd"), _tput(rows, "async-rep")
                )
            ),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Section I-A: the ETC-shaped cache workload the paper is motivated by
# ---------------------------------------------------------------------------


def etc_workload() -> Rows:
    """An ETC-shaped mix (Zipfian keys, 30:1 GET:SET, Pareto-tailed
    sizes) across the schemes, incl. the hybrid scheme: the tail carries
    the bytes, the head the requests; then the size distribution itself."""
    spec = EtcSpec(record_count=4_000, ops_per_client=150)
    rows = []
    for scheme in ("no-rep", "async-rep", "era-ce-cd", "hybrid"):
        cluster = build_cluster(
            scheme=scheme, servers=5, memory_per_server=4 * GIB
        )
        result = run_etc(cluster, spec, num_clients=12, client_hosts=4)
        rows.append({
            "part": "schemes",
            "scheme": scheme,
            "tput_ops_s": result.throughput,
            "get_mean_us": result.get_latency.mean * 1e6,
            "stored_MiB": result.stored_bytes / MIB,
        })
    sizes = sorted(EtcSizeSampler(seed=9).sample_sizes(20_000))
    big = [s for s in sizes if s > 16 * KIB]
    rows.append({
        "part": "sizes",
        "median_B": sizes[len(sizes) // 2],
        "p99_B": sizes[int(len(sizes) * 0.99)],
        "max_B": sizes[-1],
        "pct_above_16K": 100.0 * len(big) / len(sizes),
        "bytes_pct_above_16K": 100.0 * sum(big) / sum(sizes),
    })
    return rows


def _etc(rows, scheme, column):
    return one(rows, part="schemes", scheme=scheme)[column]


ETC = FigureSpec(
    name="etc",
    title="Section I-A: ETC-shaped cache workload (Zipfian, 30:1 GET:SET, "
    "Pareto-tailed sizes) across schemes incl. hybrid",
    runner=etc_workload,
    quick={},
    full={},
    columns=(
        "part", "scheme", "tput_ops_s", "get_mean_us", "stored_MiB",
        "median_B", "p99_B", "max_B", "pct_above_16K", "bytes_pct_above_16K",
    ),
    claims=(
        Claim(
            "etc.hybrid_get_faster_than_era_ce_cd", "Section VIII",
            lambda rows: _etc(rows, "hybrid", "get_mean_us")
            < _etc(rows, "era-ce-cd", "get_mean_us"),
        ),
        Claim(
            "etc.hybrid_get_within_25pct_of_async_rep", "Section VIII",
            lambda rows: _etc(rows, "hybrid", "get_mean_us")
            < _etc(rows, "async-rep", "get_mean_us") * 1.25,
        ),
        Claim(
            "etc.hybrid_stores_under_90pct_of_async_rep", "Section VIII",
            lambda rows: _etc(rows, "hybrid", "stored_MiB")
            < _etc(rows, "async-rep", "stored_MiB") * 0.90,
        ),
        Claim(
            "etc.no_rep_stores_less_than_hybrid", "Section VIII",
            lambda rows: _etc(rows, "no-rep", "stored_MiB")
            < _etc(rows, "hybrid", "stored_MiB"),
        ),
        Claim(
            "etc.median_value_under_2000_bytes", "Section I-A",
            lambda rows: one(rows, part="sizes")["median_B"] < 2_000,
        ),
        Claim(
            "etc.values_over_16kib_carry_25pct_of_bytes", "Section I-A",
            lambda rows: one(rows, part="sizes")["bytes_pct_above_16K"] > 25,
        ),
    ),
)


#: every figure, then every study, in the paper's order
FIGURES: Tuple[FigureSpec, ...] = (
    FIG4, FIG8, FIG9, FIG10, FIG11_12, FIG13,
    ABLATIONS, MODEL, RECOVERY, CODECS, SCALEOUT, ETC,
)
