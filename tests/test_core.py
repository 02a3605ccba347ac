from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EPOCH_MS, make_sample, paths
from fabmon.core import (
    PARSE_CACHE_SIZE,
    MalformedPath,
    MetricDescriptor,
    MetricSample,
    ResourcePath,
    SimClock,
    Status,
    combine_status,
)
from fabmon.directory.registry import Registry


class TestResourcePath:
    def test_parse_decomposes(self):
        assert ResourcePath.parse("bnl/linux-farm/node0042").components == (
            "bnl", "linux-farm", "node0042")

    def test_parse_folds_case(self):
        assert ResourcePath.parse("BNL/Farm").components == ("bnl", "farm")

    def test_empty_segment_rejected(self):
        with pytest.raises(MalformedPath):
            ResourcePath.parse("a//b")

    @pytest.mark.parametrize("bad", ["", "/a", "a/", "-leading", "a/_x", "a b", "a/" + "x/" * 8,
                                     "a/b\n"])
    def test_malformed(self, bad):
        with pytest.raises(MalformedPath):
            ResourcePath.parse(bad)

    def test_depth_cap(self):
        ResourcePath.parse("/".join("abcdefgh"))  # exactly 8 is fine
        with pytest.raises(MalformedPath):
            ResourcePath.parse("/".join("abcdefghi"))

    @given(paths())
    def test_round_trip(self, p):
        assert ResourcePath.parse(str(p)) == p

    def test_prefix(self):
        # a prefix is whole segments; the registry's resolve is the src prefix match
        reg = Registry()
        reg.register(ResourcePath.parse("a/b"), "agent", "ab", 60, now=0)
        reg.register(ResourcePath.parse("x/y/z"), "agent", "xyz", 60, now=0)
        assert reg.resolve(ResourcePath.parse("a/b/c"), ("agent",), now=1).endpoint == "ab"
        assert reg.resolve(ResourcePath.parse("a/bc"), ("agent",), now=1) is None
        assert reg.resolve(ResourcePath.parse("x/y"), ("agent",), now=1) is None


class TestParseInterning:
    def test_one_instance_per_text(self):
        assert ResourcePath.parse("bnl/farm/n7") is ResourcePath.parse("bnl/farm/n7")

    def test_case_variants_are_equal(self):
        assert ResourcePath.parse("A/b") == ResourcePath.parse("a/b")

    def test_malformed_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(MalformedPath):
                ResourcePath.parse("a//b")

    def test_cache_is_bounded(self):
        for i in range(PARSE_CACHE_SIZE + 100):
            ResourcePath.parse(f"bound/n{i}")
        assert ResourcePath.parse.cache_info().currsize <= PARSE_CACHE_SIZE


class TestStatus:
    def test_identity(self):
        assert combine_status([Status.PASS, Status.PASS]) is Status.PASS

    def test_max_under_order(self):
        assert combine_status([Status.PASS, Status.WARN, Status.FAIL]) is Status.FAIL

    def test_empty_is_unreachable(self):
        assert combine_status([]) is Status.UNREACHABLE

    def test_exhaustive_vs_bruteforce(self):
        # every tuple of length <= 4 over the four levels, plus the empty one
        levels = list(Status)
        cases = 0
        for k in range(0, 5):
            for combo in itertools.product(levels, repeat=k):
                expected = max(combo) if combo else Status.UNREACHABLE
                assert combine_status(list(combo)) is expected
                cases += 1
        assert cases == 1 + 4 + 16 + 64 + 256

    @given(st.lists(st.sampled_from(list(Status)), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=5))
    def test_properties(self, statuses, cut):
        rolled = combine_status(statuses)
        # commutative / idempotent / associative all collapse onto max
        assert rolled is combine_status(sorted(statuses))
        assert rolled is combine_status(statuses + statuses)
        cut = min(cut, len(statuses) - 1)  # both halves non-empty
        assert rolled is combine_status([combine_status(statuses[:cut]),
                                         combine_status(statuses[cut:])])

    def test_total_order(self):
        assert Status.PASS < Status.WARN < Status.FAIL < Status.UNREACHABLE
        assert Status.parse("warn") is Status.WARN
        with pytest.raises(ValueError):
            Status.parse("meh")


class TestTypes:
    def test_sample_identity_key(self):
        assert make_sample().key() == ("bnl/farm/n1", "cpu.load1", EPOCH_MS)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            make_sample(ts=0)
        make_sample(ts=2**63 - 1, ttl=2**63 - 1)
        with pytest.raises(ValueError):
            make_sample(ts=2**63)
        with pytest.raises(ValueError):
            make_sample(ttl=2**63)
        with pytest.raises(TypeError):
            make_sample(value=[1])
        with pytest.raises(TypeError):
            MetricSample(ResourcePath.parse("a"), "m", 1.5, 1, 1)  # float timestamp

    def test_descriptor_invariants(self):
        with pytest.raises(ValueError):
            MetricDescriptor(name="x", default_period=0.5)
        with pytest.raises(ValueError):
            MetricDescriptor(name="x", default_period=30, validity_ttl=10)


class TestSimClock:
    def test_monotone(self):
        clock = SimClock(100)
        assert clock.now() == 100
        clock.sleep_until(50)  # never goes backwards
        assert clock.now() == 100
        clock.sleep_until(250)
        assert clock.now() == 250
