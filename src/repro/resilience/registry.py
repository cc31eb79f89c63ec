"""Scheme construction by name (the strings the benchmarks use)."""

from __future__ import annotations

from typing import Tuple

from repro.resilience.base import ResilienceScheme
from repro.resilience.erasure import EraCECD, EraCESD, EraSECD, EraSESD
from repro.resilience.hybrid import HybridScheme
from repro.resilience.replication import (
    AsyncReplication,
    NoReplication,
    SyncReplication,
)

_ERASURE = {
    "era-ce-cd": EraCECD,
    "era-se-sd": EraSESD,
    "era-se-cd": EraSECD,
    "era-ce-sd": EraCESD,
}


def available_schemes() -> Tuple[str, ...]:
    """Names accepted by :func:`make_scheme`."""
    return ("no-rep", "sync-rep", "async-rep", "hybrid", "stripes") + tuple(
        sorted(_ERASURE)
    )


def make_scheme(
    name: str,
    replication_factor: int = 3,
    codec_name: str = "rs_van",
    k: int = 3,
    m: int = 2,
) -> ResilienceScheme:
    """Build a scheme by its paper name.

    ``sync-rep``/``async-rep`` take ``replication_factor``; the four
    ``era-*`` placements take the codec name and RS(K, M) parameters.
    """
    key = name.lower()
    if key == "no-rep":
        return NoReplication()
    if key == "sync-rep":
        return SyncReplication(replication_factor)
    if key == "async-rep":
        return AsyncReplication(replication_factor)
    if key == "hybrid":
        return HybridScheme(
            replication=AsyncReplication(replication_factor),
            erasure=EraCECD(codec_name=codec_name, k=k, m=m),
        )
    if key == "stripes":
        from repro.core.features import StripesConfig
        from repro.stripes.scheme import StripedScheme

        return StripedScheme(StripesConfig(codec=codec_name, k=k, m=m))
    if key in _ERASURE:
        return _ERASURE[key](codec_name=codec_name, k=k, m=m)
    raise KeyError(
        "unknown scheme %r (available: %s)" % (name, ", ".join(available_schemes()))
    )
