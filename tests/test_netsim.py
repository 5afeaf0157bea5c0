"""Deterministic RNG, clock, and the slotted channels."""

from hypothesis import given
from hypothesis import strategies as st

from twinsync.adversary import Adversary, AttackAction, AttackKind
from twinsync.netsim import Channel, Direction, SplitMix64


class TestSplitMix64:
    def test_published_reference_outputs_for_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_streams_with_same_seed_are_identical(self):
        a, b = SplitMix64(12345), SplitMix64(12345)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_chance_zero_never_fires(self):
        rng = SplitMix64(0)
        assert not any(rng.chance(0.0) for _ in range(1000))

    def test_chance_one_always_fires(self):
        rng = SplitMix64(0)
        assert all(rng.chance(1.0) for _ in range(1000))

    def test_chance_consumes_one_draw(self):
        for probability in (0.0, 0.5, 1.0):
            a, b = SplitMix64(7), SplitMix64(7)
            a.chance(probability)
            b.next_u64()
            assert a.next_u64() == b.next_u64()


class TestChannel:
    def _channel(self, **kwargs) -> Channel:
        defaults = dict(rng=SplitMix64(0))
        defaults.update(kwargs)
        return Channel(**defaults)

    def test_delivery_after_latency(self):
        ch = self._channel(latency_slots=1)
        ch.send(b"a", slot=3)
        assert ch.deliver_due(3) == []
        assert ch.deliver_due(4) == [b"a"]
        assert ch.deliver_due(5) == []

    def test_longer_latency(self):
        ch = self._channel(latency_slots=3)
        ch.send(b"a", slot=1)
        assert ch.deliver_due(2) == []
        assert ch.deliver_due(3) == []
        assert ch.deliver_due(4) == [b"a"]

    def test_fifo_within_a_slot(self):
        ch = self._channel()
        ch.send(b"first", slot=2)
        ch.send(b"second", slot=2)
        assert ch.deliver_due(3) == [b"first", b"second"]

    def test_delivery_consumes_the_queue(self):
        ch = self._channel()
        ch.send(b"a", slot=1)
        assert ch.deliver_due(2) == [b"a"]
        assert ch.deliver_due(2) == []
        assert len(ch.queue) == 0

    def test_drop_probability_one_drops_everything(self):
        ch = self._channel(drop_probability=1.0)
        for slot in range(5):
            assert ch.send(b"x", slot=slot) is False
        assert len(ch.queue) == 0
        assert len(ch.drop_log) == 5
        assert [f.sent_at_slot for f in ch.drop_log] == list(range(5))

    def test_drop_probability_zero_drops_nothing(self):
        ch = self._channel(drop_probability=0.0)
        for slot in range(50):
            assert ch.send(b"x", slot=slot) is True
        assert ch.drop_log == []
        assert len(ch.queue) == 50

    def test_drop_pattern_is_seed_deterministic(self):
        def pattern(seed: int) -> list[int]:
            ch = self._channel(rng=SplitMix64(seed), drop_probability=0.4)
            for slot in range(200):
                ch.send(b"x", slot=slot)
            return [f.sent_at_slot for f in ch.drop_log]

        assert pattern(99) == pattern(99)
        assert pattern(99) != pattern(100)

    def test_rng_advances_even_when_drops_are_off(self):
        """Stream position depends only on send count, not on drop settings."""
        quiet = self._channel(rng=SplitMix64(5), drop_probability=0.0)
        lossy = self._channel(rng=SplitMix64(5), drop_probability=0.4)
        for slot in range(10):
            quiet.send(b"x", slot=slot)
            lossy.send(b"x", slot=slot)
        assert quiet.rng.next_u64() == lossy.rng.next_u64()

    # The channel has no hook: the runner hands each due batch to the adversary.

    def test_interceptor_sees_and_rewrites_the_batch(self):
        ch = self._channel()
        ch.send(b"a", slot=1)
        ch.send(b"b", slot=1)
        replay = {"capture_slot": 2, "capture_index": 1}
        adv = Adversary(
            [
                AttackAction(AttackKind.DELETE, 2, Direction.PHYS_TO_VIRT),
                AttackAction(AttackKind.REPLAY, 3, Direction.PHYS_TO_VIRT, replay),
            ],
            SplitMix64(0),
        )
        assert adv.intercept(2, Direction.PHYS_TO_VIRT, ch.deliver_due(2)) == [b"b"]
        assert adv.captures == {(2, Direction.PHYS_TO_VIRT, 1): b"b"}

    def test_interceptor_runs_even_for_empty_slots(self):
        ch = self._channel()
        insert = AttackAction(
            AttackKind.INSERT, 1, Direction.PHYS_TO_VIRT, {"raw_hex": "deadbeef"}
        )
        adv = Adversary([insert], SplitMix64(0))
        batch = ch.deliver_due(1)
        assert batch == []
        assert adv.intercept(1, Direction.PHYS_TO_VIRT, batch) == [bytes.fromhex("deadbeef")]
        assert adv.applied == [(insert, True)]


class ListScanChannel:
    """Model: the channel as a list rescanned on every delivery, FIFO by construction."""

    def __init__(self, rng: SplitMix64, latency_slots: int, drop_probability: float):
        self.rng, self.latency, self.drop = rng, latency_slots, drop_probability
        self.queue: list[tuple[int, bytes]] = []
        self.dropped: list[tuple[int, bytes]] = []

    def send(self, data: bytes, slot: int) -> None:
        if self.rng.chance(self.drop):
            self.dropped.append((slot, data))
        else:
            self.queue.append((slot + self.latency, data))

    def deliver_due(self, slot: int) -> list[bytes]:
        due = [data for at, data in self.queue if at == slot]
        self.queue = [(at, data) for at, data in self.queue if at != slot]
        return due


@given(
    latency=st.integers(min_value=0, max_value=3),
    drop=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    # (slots to advance, frames to send): 0 repeats a slot, 2 or more skips slots.
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
        max_size=40,
    ),
)
def test_channel_delivers_what_a_list_scan_delivers(latency, drop, seed, steps):
    ch = Channel(SplitMix64(seed), latency, drop)
    model = ListScanChannel(SplitMix64(seed), latency, drop)
    slot = sent = 0
    for advance, sends in steps:
        slot += advance
        for _ in range(sends):
            data = sent.to_bytes(2, "big")
            sent += 1
            ch.send(data, slot)
            model.send(data, slot)
        assert ch.deliver_due(slot) == model.deliver_due(slot)
    assert [(f.sent_at_slot, f.data) for f in ch.drop_log] == model.dropped


def test_drop_log_keeps_the_sent_object():
    ch = Channel(SplitMix64(0), drop_probability=1.0)
    data = bytes(70)
    ch.send(data, slot=3)
    assert ch.drop_log[-1].data is data
