"""The soak kernel's pure parts: register model, seed fan-out, digest."""

import random

import pytest

from repro.harness.soak import (
    RegisterModel,
    client_streams,
    digest_of,
    fan_out,
    latency_summary,
    value_bytes,
)

A, B, C = b"aaaa", b"bbbb", b"cccc"

#: (ops applied in order, legal read outcomes afterwards); an op is
#: ("set", bytes, acked) or ("delete", acked)
TRANSITIONS = [
    ([], {None}),
    ([("set", A, True)], {A}),
    ([("set", A, False)], {None, A}),
    ([("set", A, True), ("set", B, True)], {B}),
    ([("set", A, True), ("set", B, False)], {A, B}),
    # two consecutive failed Sets keep all three candidates legal
    ([("set", A, True), ("set", B, False), ("set", C, False)], {A, B, C}),
    # an acknowledged Set settles any earlier uncertainty
    ([("set", A, True), ("set", B, False), ("set", C, True)], {C}),
    ([("set", A, True), ("delete", True)], {None}),
    ([("set", A, True), ("delete", False)], {A, None}),
    ([("set", A, True), ("delete", False), ("delete", True)], {None}),
    ([("set", A, True), ("delete", True), ("set", B, False)], {None, B}),
    ([("set", A, True), ("delete", True), ("set", B, True)], {B}),
]


def _apply(ops):
    model = RegisterModel("c0")
    for op in ops:
        if op[0] == "set":
            model.note_set("k", op[1], ok=op[2])
        else:
            model.note_delete("k", ok=op[1])
    return model


class TestRegisterModel:
    @pytest.mark.parametrize("ops, legal", TRANSITIONS)
    def test_transition_table(self, ops, legal):
        model = _apply(ops)
        assert model.legal("k") == legal
        for outcome in (None, A, B, C):
            verdict = model.check("k", outcome)
            assert (verdict in ("hit", "uncertain-hit", "miss")) == (
                outcome in legal
            ), (outcome, verdict)

    def test_miss_on_certain_acked_key_is_a_lost_write(self):
        model = _apply([("set", A, True)])
        assert model.certain("k")
        assert model.check("k", None) == "lost-write"
        assert model.check("k", B) == "wrong-bytes"
        assert model.check("k", A) == "hit"

    def test_read_after_acked_delete_is_a_ghost_read(self):
        model = _apply([("set", A, True), ("delete", True)])
        assert model.check("k", A) == "ghost-read"
        assert model.check("k", None) == "miss"

    def test_uncertain_key_is_excluded_from_lost_write_accounting(self):
        model = _apply([("set", A, True), ("set", B, False)])
        assert not model.certain("k")
        assert model.check("k", A) == "uncertain-hit"
        assert model.check("k", B) == "uncertain-hit"
        assert model.check("k", C) == "wrong-bytes"
        # the last acknowledged bytes stay on record through the doubt
        assert model.acked["k"] == A

    def test_never_written_key_reads_as_a_legal_miss(self):
        assert RegisterModel("c0").check("other", None) == "miss"

    def test_counters_and_touched_keys(self):
        model = _apply([("set", A, True), ("set", B, False), ("delete", True)])
        assert model.counts["set_acks"] == 1
        assert model.counts["set_failures"] == 1
        assert model.counts["delete_acks"] == 1
        assert model.keys_touched() == {"k"}
        model.inflight.add("pending")
        assert model.keys_touched() == {"k", "pending"}


class TestFanOut:
    ORDER = [("chaos", 64), ("scrub", 32)] + client_streams(2)

    def test_pure_function_of_seed_and_declared_order(self):
        assert fan_out(7, self.ORDER) == fan_out(7, self.ORDER)
        assert fan_out(7, self.ORDER) != fan_out(8, self.ORDER)

    def test_draws_follow_the_declared_order(self):
        master = random.Random(7)
        expected = {
            "chaos": master.getrandbits(64),
            "scrub": master.getrandbits(32),
            "client-0": master.getrandbits(64),
            "client-1": master.getrandbits(64),
        }
        assert fan_out(7, self.ORDER) == expected

    def test_a_skipped_stream_shifts_every_later_one(self):
        with_scrub = fan_out(7, self.ORDER)
        without = fan_out(7, [s for s in self.ORDER if s[0] != "scrub"])
        assert with_scrub["chaos"] == without["chaos"]
        assert with_scrub["client-0"] != without["client-0"]


class TestDigestAndHelpers:
    def test_digest_ignores_dict_insertion_order(self):
        forward = {"ops": {"a": 1, "b": 2}, "log": [[0.5, "x"]]}
        backward = {"log": [[0.5, "x"]], "ops": {"b": 2, "a": 1}}
        assert digest_of(forward) == digest_of(backward)
        assert digest_of(forward) != digest_of({"ops": {"a": 1, "b": 3}})

    def test_value_bytes_is_unique_per_write_and_sized(self):
        assert len(value_bytes("c0:k001", 3, 100)) == 100
        assert value_bytes("c0:k001", 3, 64) != value_bytes("c0:k001", 4, 64)
        assert value_bytes("c0:k001", 3, 64) == value_bytes("c0:k001", 3, 64)

    def test_latency_summary_units(self):
        assert latency_summary([]) is None
        micro = latency_summary([1e-6, 3e-6])
        assert micro["count"] == 2 and micro["mean_us"] == 2.0
        milli = latency_summary([1e-3, 3e-3], unit="ms", digits=4)
        assert milli["max_ms"] == 3.0 and "p95_ms" in milli
