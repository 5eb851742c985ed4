"""Tests for the configuration dataclasses (Table 1)."""

import pytest

from repro.common.params import (
    CacheConfig,
    CoreConfig,
    FilterCacheConfig,
    ProtectionConfig,
    SystemConfig,
)


class TestCacheConfig:
    def test_table1_l1d_geometry(self):
        config = SystemConfig()
        assert config.l1d.size_bytes == 64 * 1024
        assert config.l1d.associativity == 2
        assert config.l1d.hit_latency == 2
        assert config.l1d.num_sets == 512
        assert config.l1d.num_lines == 1024

    def test_table1_l1i_and_l2(self):
        config = SystemConfig()
        assert config.l1i.size_bytes == 32 * 1024
        assert config.l1i.hit_latency == 1
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.associativity == 8
        assert config.l2.hit_latency == 20
        assert config.l2.prefetcher == "stride"

    def test_rejects_non_power_of_two_line_size(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1024, associativity=2,
                        line_size=48)

    def test_rejects_associativity_above_line_count(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=128, associativity=4,
                        line_size=64)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=0, associativity=1)


class TestFilterCacheConfig:
    def test_default_is_2kib_4way_1cycle(self):
        filter_config = FilterCacheConfig()
        assert filter_config.size_bytes == 2048
        assert filter_config.associativity == 4
        assert filter_config.hit_latency == 1
        assert filter_config.num_lines == 32
        assert filter_config.num_sets == 8

    def test_fully_associative_helper(self):
        filter_config = FilterCacheConfig().fully_associative()
        assert filter_config.associativity == filter_config.num_lines
        assert filter_config.num_sets == 1

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            FilterCacheConfig(size_bytes=32)


class TestProtectionConfig:
    def test_full_enables_everything_needed(self):
        protection = ProtectionConfig.full()
        assert protection.data_filter_cache
        assert protection.instruction_filter_cache
        assert protection.coherence_protection
        assert protection.commit_time_prefetch
        assert not protection.clear_on_misspeculate

    def test_none_disables_everything(self):
        protection = ProtectionConfig.none()
        assert not protection.data_filter_cache
        assert not protection.coherence_protection
        assert not protection.commit_time_prefetch


class TestSystemConfig:
    def test_mode_helpers(self):
        config = SystemConfig()
        assert config.mode == "muontrap"
        assert config.with_mode("stt-future").mode == "stt-future"
        assert config.with_cores(4).num_cores == 4

    def test_mode_must_be_a_name_string(self):
        with pytest.raises(TypeError, match="mode.*name string"):
            SystemConfig(mode=7)
        with pytest.raises(TypeError, match="mode.*name string"):
            CoreConfig(mode=None)

    def test_with_mode_must_be_given_a_name_string(self):
        with pytest.raises(TypeError, match="mode.*name string"):
            SystemConfig().with_mode(7)
        with pytest.raises(TypeError, match="mode.*name string"):
            CoreConfig().with_mode(None)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)
