"""Fig. 8's shape at miniature scale, one OHB run per configuration.

The figure table checks Fig. 8 at its quick parameters; these check the
same orderings hold for a handful of ops on a few sizes.
"""

import pytest

from repro.harness import format_table
from repro.harness.figures import ohb

KIB = 1024
MIB = 1024 * 1024


def avg_us(scheme, op, size, num_ops, failures=0):
    return ohb("fig8", scheme, op, size, num_ops, failures).avg_latency * 1e6


class TestFig8:
    def test_set_ordering(self):
        for size in (16 * KIB, 256 * KIB):
            sync = avg_us("sync-rep", "set", size, 150)
            era = avg_us("era-ce-cd", "set", size, 150)
            # paper: Era-CE-CD improves Set latency 1.6x-2.8x over Sync-Rep
            assert era < sync / 1.5

    def test_get_parity_no_failures(self):
        rep = avg_us("async-rep", "get", 256 * KIB, 150)
        era = avg_us("era-ce-cd", "get", 256 * KIB, 150)
        # paper Fig 8(b): erasure get ~= async-rep get without failures
        assert era == pytest.approx(rep, rel=0.2)

    def test_degraded_get_ordering(self):
        rep = avg_us("async-rep", "get", MIB, 100, failures=2)
        ce = avg_us("era-ce-cd", "get", MIB, 100, failures=2)
        sd = avg_us("era-se-sd", "get", MIB, 100, failures=2)
        # paper Fig 8(c): era degraded reads cost more; SE-SD worst (~2.2x)
        assert rep < ce < sd
        assert sd > 1.5 * rep


class TestRegistryAndReporting:
    def test_format_table(self):
        text = format_table(
            ["scheme", "latency"], [["era", 12.5], ["rep", 30.0]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "scheme" in lines[0]
        assert "era" in lines[2]
