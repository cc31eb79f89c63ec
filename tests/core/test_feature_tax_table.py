"""Every ``Features`` builder the benchmark's feature-tax table calls
still builds a working cluster.

``benchmarks/kv/feature_tax.py`` prices each switch by calling one
``Features`` builder (``_CONFIGURE``).  A builder deleted or renamed in
``src/`` fails here, in tier-1, instead of in a full benchmark run.
This test only reads ``benchmarks/kv``.
"""

import pathlib
import sys

import pytest

from repro.common.payload import Payload
from repro.core import build_cluster

BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "kv"


def _configure_table():
    """``feature_tax._CONFIGURE``, imported the way ``run.py`` imports
    it, with the benchmark's sibling modules unloaded again after."""
    sys.path.insert(0, str(BENCH))
    before = set(sys.modules)
    try:
        import feature_tax

        return dict(feature_tax._CONFIGURE)
    finally:
        sys.path.remove(str(BENCH))
        for name in set(sys.modules) - before:
            path = getattr(sys.modules[name], "__file__", None) or ""
            if path.startswith(str(BENCH)):
                del sys.modules[name]


CONFIGURE = _configure_table()


@pytest.mark.parametrize("switch", sorted(CONFIGURE))
def test_feature_tax_builder_builds_a_cluster(switch):
    config = CONFIGURE[switch](0.1)  # the default run's virtual seconds
    cluster = build_cluster(scheme="era-ce-cd", servers=5, config=config)
    assert cluster.config is config
    client = cluster.add_client()
    value = Payload.from_bytes(b"t" * 4096)
    got = {}

    def body():
        assert (yield from client.set("k", value))
        got["value"] = yield from client.get("k")

    cluster.sim.process(body())
    cluster.run()
    assert got["value"].data == value.data
