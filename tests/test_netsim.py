"""Deterministic RNG, clock, and the slotted channels."""

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
        a, b = SplitMix64(7), SplitMix64(7)
        a.chance(0.5)
        b.next_u64()
        assert a.next_u64() == b.next_u64()


class TestChannel:
    def _channel(self, **kwargs) -> Channel:
        defaults = dict(direction=Direction.PHYS_TO_VIRT, rng=SplitMix64(0))
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
        assert ch.queue == []

    def test_drop_probability_one_drops_everything(self):
        ch = self._channel(drop_probability=1.0)
        for slot in range(5):
            ch.send(b"x", slot=slot)
        assert ch.queue == []
        assert len(ch.drop_log) == 5
        assert [f.sent_at_slot for f in ch.drop_log] == list(range(5))

    def test_drop_probability_zero_drops_nothing(self):
        ch = self._channel(drop_probability=0.0)
        for slot in range(50):
            ch.send(b"x", slot=slot)
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

    def test_interceptor_sees_and_rewrites_the_batch(self):
        ch = self._channel()
        ch.send(b"a", slot=1)
        ch.send(b"b", slot=1)
        seen = []

        def interceptor(slot, direction, frames):
            seen.append((slot, direction, list(frames)))
            return [b"z"]

        assert ch.deliver_due(2, interceptor) == [b"z"]
        assert seen == [(2, Direction.PHYS_TO_VIRT, [b"a", b"b"])]

    def test_interceptor_runs_even_for_empty_slots(self):
        ch = self._channel()
        calls = []

        def interceptor(slot, direction, frames):
            calls.append(slot)
            return frames

        ch.deliver_due(1, interceptor)
        assert calls == [1]
