"""Feature configuration: plan compilation, parity, mid-run recompiles.

The tentpole contract of the ``Features``/``ClusterConfig`` redesign:

- a default config compiles the **fast path** — no retry driver, no
  guard, no admission, no interceptor dispatch — and a config with
  features on compiles exactly the enabled stages;
- on a healthy cluster, every feature combination produces **identical
  OpResults** to the fast path (resilience features change failure
  handling and timing, never the semantics of successful operations);
- mutating a cluster-bound ``Features`` recompiles every component's
  plan immediately, without replacing clients or servers.
"""

import warnings

import pytest

from repro.common.payload import Payload
from repro.core import ClusterConfig, Features, build_cluster
from repro.core.features import (
    AdmissionConfig,
    MembershipConfig,
    ScrubConfig,
    StripesConfig,
)
from repro.faults import ChaosEngine
from repro.faults.profiles import PROFILES
from repro.store.policy import HARDENED_POLICY

KIB = 1024
MIB = 1024 * 1024


def make_cluster(config=None, scheme="era-ce-cd"):
    return build_cluster(
        scheme=scheme, servers=5, memory_per_server=256 * MIB, config=config
    )


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def run_workload(cluster, client, tag=""):
    """A deterministic mixed workload; returns comparable result tuples."""

    def body():
        outcomes = []
        for i in range(8):
            key = "k%02d" % i
            handle = client.iset(key, Payload.from_bytes(b"%03d" % i * 512))
            yield client.wait([handle])
            outcomes.append(("set", key, summarize(handle.result)))
        for i in range(8):
            key = "k%02d" % i
            handle = client.iget(key)
            yield client.wait([handle])
            outcomes.append(("get", key, summarize(handle.result)))
        miss = client.iget("ghost")
        yield client.wait([miss])
        outcomes.append(("get", "ghost", summarize(miss.result)))
        batch = client.multi_set(
            [("b%d" % i, Payload.from_bytes(b"bb" * 256)) for i in range(6)]
        )
        yield batch.done
        outcomes.append(("multi_set", "*", summarize(batch.result)))
        fetched = client.multi_get(["b%d" % i for i in range(6)] + ["ghost"])
        yield fetched.done
        for key in sorted(fetched.results):
            outcomes.append(("multi_get", key, summarize(fetched.results[key])))
        return outcomes

    return drive(cluster, body())


def summarize(result):
    """The semantic content of an OpResult (no timings)."""
    return (
        result.ok,
        result.error,
        result.value.data if result.ok and result.value is not None else None,
        result.degraded,
    )


class TestPlanCompilation:
    def test_default_config_compiles_the_fast_path(self):
        cluster = make_cluster()
        client = cluster.add_client()
        assert cluster.config.compile_client_plan().is_fast_path
        assert client.plan.is_fast_path
        assert client.guard is None
        assert not client._use_retries
        assert client._timeout is None
        for server in cluster.servers.values():
            assert server.admission is None
        assert cluster.fabric._intercept is None

    def test_enabled_features_compile_their_stages(self):
        config = (
            Features().harden().with_overload().with_admission_control()
        )
        cluster = make_cluster(config=config)
        client = cluster.add_client()
        assert not client.plan.is_fast_path
        assert client._use_retries
        assert client._timeout is not None
        assert client.guard is not None
        for server in cluster.servers.values():
            assert server.admission is not None

    def test_clusterconfig_is_the_features_builder(self):
        assert ClusterConfig is Features

    def test_write_versioning_is_always_on(self):
        # the stale-write guard is no switch: the builder call is kept,
        # changes nothing, and refuses to turn the guard off
        config = Features()
        recompiles = []
        config._observers.append(recompiles.append)
        assert config.with_write_versioning() is config
        assert recompiles == []
        with pytest.raises(ValueError):
            config.with_write_versioning(False)

    def test_disable_rejects_unknown_feature(self):
        with pytest.raises(ValueError):
            Features().disable("nonsense")


class TestRejectedCalls:
    """A rejected ``with_*`` call stores nothing: if it did, every later
    toggle would recompile the bad declaration and re-raise."""

    def test_rejected_membership_leaves_config_unchanged(self):
        cluster = make_cluster()
        cluster.config.with_membership(period=0.01)
        before = cluster.config.membership
        with pytest.raises(ValueError):
            cluster.config.with_membership(period=0.0)
        assert cluster.config.membership is before
        cluster.config.with_admission_control()
        assert all(s.admission is not None for s in cluster.servers.values())



class TestConfigValidation:
    """Each feature's config dataclass owns its checks: an invalid value
    raises ``ValueError`` whether the config is built directly or through
    its ``with_*`` builder, and a rejected builder call stores nothing."""

    INVALID = [
        ("with_membership", MembershipConfig, "membership", {"period": 0.0}),
        ("with_membership", MembershipConfig, "membership", {"period": -0.1}),
        ("with_small_object_stripes", StripesConfig, "stripes",
         {"threshold": 0}),
        ("with_small_object_stripes", StripesConfig, "stripes",
         {"threshold": 8 * KIB, "stripe_capacity": 4 * KIB}),
        ("with_small_object_stripes", StripesConfig, "stripes",
         {"compact_utilization": -0.1}),
        ("with_small_object_stripes", StripesConfig, "stripes",
         {"compact_utilization": 1.5}),
        ("with_small_object_stripes", StripesConfig, "stripes",
         {"seal_timeout": 0.0}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"scan_period": 0.0}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"audit_period": -1.0}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"epsilon": 0.0}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"epsilon": 1.5}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"p_bound": 0.0}),
        ("with_scrubbing", ScrubConfig, "scrubbing", {"p_bound": 1.0}),
    ]

    @pytest.mark.parametrize("builder, config_cls, attr, fields", INVALID)
    def test_invalid_value_is_rejected_both_ways(
        self, builder, config_cls, attr, fields
    ):
        with pytest.raises(ValueError):
            config_cls(**fields)
        cluster = make_cluster()
        features = cluster.config
        before = getattr(features, attr)
        recompiles = []
        features._observers.append(recompiles.append)
        with pytest.raises(ValueError):
            getattr(features, builder)(**fields)
        assert getattr(features, attr) is before
        assert recompiles == []

    def test_unknown_detector_is_rejected(self):
        with pytest.raises(ValueError):
            Features().with_membership(detector="heartbeat")

    def test_builders_store_the_config_defaults(self):
        features = (
            Features()
            .with_admission_control()
            .with_membership()
            .with_small_object_stripes()
            .with_scrubbing()
        )
        assert features.admission == AdmissionConfig()
        assert features.membership == MembershipConfig()
        assert features.stripes == StripesConfig()
        assert features.scrubbing == ScrubConfig()

    def test_stripes_scheme_by_name_takes_the_config_defaults(self):
        cluster = build_cluster(
            scheme="stripes", servers=6, codec="crs", k=4, m=2
        )
        scheme, defaults = cluster.scheme, StripesConfig()
        assert scheme.threshold == defaults.threshold
        assert scheme.stripe_capacity == defaults.stripe_capacity
        assert scheme.seal_timeout == defaults.seal_timeout
        assert scheme.compactor.min_utilization == defaults.compact_utilization
        assert scheme.codec.name == "crs"
        assert (scheme.k, scheme.m) == (4, 2)


class TestFeatureMatrixParity:
    """Every feature combination yields the fast path's OpResults."""

    CONFIGS = {
        "fast": lambda: None,
        "hardened": lambda: Features().harden(),
        "admission": lambda: Features().with_admission_control(),
        "overload": lambda: Features().harden().with_overload(),
        "kitchen-sink": lambda: (
            Features().harden().with_overload().with_admission_control()
        ),
    }

    @pytest.fixture(scope="class")
    def reference(self):
        cluster = make_cluster()
        return run_workload(cluster, cluster.add_client())

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_parity_with_fast_path(self, name, reference):
        cluster = make_cluster(config=self.CONFIGS[name]())
        outcomes = run_workload(cluster, cluster.add_client())
        assert outcomes == reference

    @pytest.mark.parametrize("scheme", ["no-rep", "async-rep", "era-se-cd"])
    def test_parity_holds_across_schemes(self, scheme):
        fast_cluster = make_cluster(scheme=scheme)
        fast = run_workload(fast_cluster, fast_cluster.add_client())
        full_cluster = make_cluster(
            scheme=scheme, config=Features().harden().with_admission_control()
        )
        full = run_workload(full_cluster, full_cluster.add_client())
        assert full == fast


class TestMidRunRecompilation:
    def test_mutation_recompiles_live_plans(self):
        cluster = make_cluster()
        client = cluster.add_client()
        fast_plan = client.plan
        assert fast_plan.is_fast_path

        cluster.config.harden().with_admission_control()
        assert client.plan is not fast_plan
        assert client._use_retries
        for server in cluster.servers.values():
            assert server.admission is not None

        cluster.config.disable("hardening", "admission")
        assert client.plan.is_fast_path
        assert not client._use_retries
        for server in cluster.servers.values():
            assert server.admission is None

    def test_ops_work_across_a_mid_run_feature_flip(self):
        cluster = make_cluster()
        client = cluster.add_client()

        def phase(i):
            def body():
                handle = client.iset(
                    "flip", Payload.from_bytes(b"v%d" % i * 256)
                )
                yield client.wait([handle])
                got = client.iget("flip")
                yield client.wait([got])
                return handle.result, got.result

            return drive(cluster, body())

        set_r, get_r = phase(0)
        assert set_r.ok and get_r.value.data == b"v0" * 256
        cluster.config.harden().with_overload().with_admission_control()
        set_r, get_r = phase(1)
        assert set_r.ok and get_r.value.data == b"v1" * 256
        cluster.config.disable("hardening", "overload", "admission")
        set_r, get_r = phase(2)
        assert set_r.ok and get_r.value.data == b"v2" * 256
        assert client.plan.is_fast_path

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                lambda: Features().harden(HARDENED_POLICY), id="hardened"
            ),
            pytest.param(
                lambda: Features().harden(HARDENED_POLICY).with_overload(),
                id="overload",
            ),
        ],
    )
    def test_recompile_with_same_policy_keeps_hedge_state(self, config):
        cluster = make_cluster(config=config())
        client = cluster.add_client()
        cutoff, guard = client.hedge_cutoff, client.guard
        cluster.config.with_admission_control()  # same policy, new plan
        cluster.config.disable("admission")
        assert client.hedge_cutoff is cutoff
        assert client.guard is guard

    def test_guard_dropped_on_return_to_fast_path(self):
        cluster = make_cluster(config=Features().harden().with_overload())
        client = cluster.add_client()
        assert client.guard is not None
        cluster.config.disable("overload", "hardening")
        assert client.guard is None
        assert client.read_repair.brownout is None

    def test_explicit_client_policy_survives_cluster_recompiles(self):
        cluster = make_cluster()
        client = cluster.add_client(policy=HARDENED_POLICY)
        assert client.explicit_policy
        assert client.policy is HARDENED_POLICY
        cluster.config.with_admission_control()
        assert client.policy is HARDENED_POLICY


class TestChaosAttachment:
    """A chaos engine attaches itself when built and detaches on
    ``uninstall()``; ``Features`` declares no chaos."""

    def test_engine_built_by_name_equals_one_built_by_profile(self):
        by_name = ChaosEngine(make_cluster(), "network", seed=5)
        by_profile = ChaosEngine(make_cluster(), PROFILES["network"], seed=5)
        assert by_name.profile == by_profile.profile
        assert by_name.max_degraded == by_profile.max_degraded
        assert (
            by_name.sched_rng.getstate() == by_profile.sched_rng.getstate()
        )

    def test_unknown_profile_name_attaches_nothing(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            ChaosEngine(cluster, "no-such-profile", seed=0)
        assert cluster.fabric._intercept is None

    def test_uninstall_clears_interceptor(self):
        cluster = make_cluster()
        engine = ChaosEngine(cluster, "network", seed=5)
        assert cluster.fabric._intercept is not None
        engine.uninstall()
        assert cluster.fabric._intercept is None


class TestNoWarnings:
    def test_new_apis_raise_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cluster = make_cluster(
                config=Features().harden().with_admission_control()
            )
            cluster.config.disable("admission")
