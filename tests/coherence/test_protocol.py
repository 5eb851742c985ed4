"""Tests for the MESI coherence controller, bus and snoop filter."""

import itertools
import random

import pytest

from repro.caches.base_cache import SetAssociativeCache
from repro.caches.hierarchy import NonSpeculativeHierarchy
from repro.coherence.bus import CoherenceBus
from repro.coherence.protocol import (
    MESI_TRANSITIONS,
    CoherenceController,
    MesiEvent,
    next_state,
)
from repro.coherence.snoop_filter import SnoopFilter
from repro.coherence.states import CoherenceState, E, I, M, S
from repro.common.params import (
    CacheConfig,
    SystemConfig,
    corun_system_config,
)
from repro.memory.main_memory import MainMemory


def build_two_core_setup():
    bus = CoherenceBus()
    l1s = {}
    for core in range(2):
        l1s[core] = SetAssociativeCache(CacheConfig(
            name=f"l1d{core}", size_bytes=4096, associativity=2,
            hit_latency=2))
        bus.register_private_cache(core, l1s[core])
    l2 = SetAssociativeCache(CacheConfig(name="l2", size_bytes=64 * 1024,
                                         associativity=8, hit_latency=20))
    memory = MainMemory()
    controller = CoherenceController(bus, l2, memory)
    return bus, l1s, l2, memory, controller


class TestStates:
    def test_state_predicates(self):
        assert M.can_write and M.is_private
        assert E.is_private and not E.can_write
        assert S.can_read and not S.is_private
        assert not I.is_valid


class TestReadPath:
    def test_cold_read_goes_to_memory_and_grants_exclusive(self):
        _, _, l2, memory, controller = build_two_core_setup()
        _, hit_level, exclusive_available = controller.read(0, 0x1000, now=0)
        assert hit_level == "memory"
        # A read is granted Exclusive exactly when it is available.
        assert exclusive_available
        assert memory.total_reads == 1
        assert l2.contains(0x1000)

    def test_l2_hit_is_cheaper_than_memory(self):
        _, _, _, _, controller = build_two_core_setup()
        cold_latency, _, _ = controller.read(0, 0x2000, now=0)
        warm_latency, warm_level, _ = controller.read(1, 0x2000, now=100)
        assert warm_level == "l2"
        assert warm_latency < cold_latency

    def test_peer_modified_copy_is_downgraded(self):
        _, l1s, l2, _, controller = build_two_core_setup()
        l1s[0].fill(0x3000, M, now=0, dirty=True)
        _, hit_level, _ = controller.read(1, 0x3000, now=10)
        assert hit_level == "peer"
        assert l1s[0].state_of(0x3000) is S
        assert l2.contains(0x3000)

    def test_speculative_read_nacked_under_protection(self):
        """Reduced coherency speculation (section 4.5)."""
        bus, l1s, _, _, controller = build_two_core_setup()
        l1s[0].fill(0x3000, E, now=0)
        _, hit_level, _ = controller.read(1, 0x3000, now=10, speculative=True,
                                          protect_coherence=True)
        assert hit_level == "nack"
        assert l1s[0].state_of(0x3000) is E  # untouched
        assert bus.nacks == 1
        # The same request succeeds once it is non-speculative.
        _, retry_level, _ = controller.read(1, 0x3000, now=20,
                                            speculative=False,
                                            protect_coherence=True)
        assert retry_level != "nack"
        assert l1s[0].state_of(0x3000) is S

    def test_filter_fill_without_l2_install(self):
        """The filter-cache fill path leaves no trace in the L2."""
        _, _, l2, memory, controller = build_two_core_setup()
        _, hit_level, _ = controller.read(0, 0x7000, now=0, speculative=True,
                                          fill_l2=False)
        assert hit_level == "memory"
        assert not l2.contains(0x7000)
        assert memory.total_reads == 1


class TestWritePath:
    def test_write_invalidates_other_copies(self):
        _, l1s, _, _, controller = build_two_core_setup()
        l1s[1].fill(0x4000, S, now=0)
        # A write is always granted Modified, so it returns no state.
        _, hit_level, _ = controller.write(0, 0x4000, now=10)
        assert hit_level in ("l2", "memory")
        assert l1s[1].state_of(0x4000) is I

    def test_filter_broadcast_reaches_registered_listeners(self):
        bus, _, _, _, controller = build_two_core_setup()
        invalidated = []
        bus.register_filter_listener(1, invalidated.append)
        _, _, triggered = controller.write(0, 0x6000, now=0,
                                           broadcast_to_filters=True)
        assert triggered
        assert invalidated == [0x6000]
        assert bus.filter_broadcasts == 1

    def test_asynchronous_upgrade_invalidates_peers_and_filters(self):
        bus, l1s, _, _, controller = build_two_core_setup()
        invalidated = []
        bus.register_filter_listener(1, invalidated.append)
        l1s[1].fill(0x8000, S, now=0)
        controller.asynchronous_exclusive_upgrade(0, 0x8000, now=10)
        assert l1s[1].state_of(0x8000) is I
        assert invalidated == [0x8000]


class TestMesiTransitionTable:
    """Exhaustive enumeration of the (state, event) transition table."""

    def test_table_is_total(self):
        """Every (state, event) pair has exactly one entry."""
        expected = set(itertools.product(CoherenceState, MesiEvent))
        assert set(MESI_TRANSITIONS) == expected
        assert len(MESI_TRANSITIONS) == len(CoherenceState) * len(MesiEvent)

    @pytest.mark.parametrize("state,event",
                             list(itertools.product(CoherenceState,
                                                    MesiEvent)),
                             ids=lambda value: getattr(value, "value", value))
    def test_every_transition_preserves_protocol_invariants(self, state,
                                                            event):
        """Check each of the 20 transitions against the MESI axioms."""
        result = next_state(state, event)
        # Remote writes and evictions always end in Invalid.
        if event in (MesiEvent.REMOTE_WRITE, MesiEvent.EVICT):
            assert result is I
        # A remote read never leaves a private (M/E) copy behind.
        if event is MesiEvent.REMOTE_READ and state.is_valid:
            assert not result.is_private
        # A local write always ends with write permission.
        if event is MesiEvent.LOCAL_WRITE:
            assert result is M
        # A local read never loses the line, and never *gains* write
        # permission (only a write can).
        if event is MesiEvent.LOCAL_READ:
            assert result.is_valid
            assert result.can_write == (state is M)
        # Invalid is absorbing for remote events.
        if state is I and event in (MesiEvent.REMOTE_READ,
                                    MesiEvent.REMOTE_WRITE):
            assert result is I

    def test_silent_upgrade_only_from_exclusive(self):
        """E -> M needs no bus transaction; S -> M does (invalidation)."""
        assert next_state(E, MesiEvent.LOCAL_WRITE) is M
        assert next_state(S, MesiEvent.LOCAL_WRITE) is M
        # A committed store realises the E -> M edge in the L1 alone, at
        # the L1 hit latency and with no snoop; the S -> M edge goes
        # through the controller's invalidating write.
        hierarchy = NonSpeculativeHierarchy(SystemConfig(num_cores=2))
        l1 = hierarchy.l1d(0)
        hierarchy.access(0, 0x9000, now=0)      # a cold read is granted E
        assert l1.state_of(0x9000) is E
        snoops = hierarchy.stats.get("bus.snoops")
        latency, _, _ = hierarchy.commit_store(0, 0x9000, now=500)
        assert latency == l1.config.hit_latency
        assert hierarchy.stats.get("bus.snoops") == snoops
        assert l1.state_of(0x9000) is M
        l1.fill(0xA000, S, now=500)
        hierarchy.commit_store(0, 0xA000, now=600)
        assert hierarchy.stats.get("bus.snoops") == snoops + 1
        assert l1.state_of(0xA000) is M

    def test_controller_read_realises_remote_read_edges(self):
        """M/E owners end Shared after a peer read, as the table says."""
        for owner_state in (M, E):
            _, l1s, _, _, controller = build_two_core_setup()
            l1s[0].fill(0x3000, owner_state, now=0,
                        dirty=owner_state is M)
            controller.read(1, 0x3000, now=10)
            assert l1s[0].state_of(0x3000) is next_state(
                owner_state, MesiEvent.REMOTE_READ)

    def test_controller_write_realises_remote_write_edges(self):
        """Any peer copy ends Invalid after a write, as the table says."""
        for peer_state in (M, E, S):
            _, l1s, _, _, controller = build_two_core_setup()
            l1s[1].fill(0x4000, peer_state, now=0, dirty=peer_state is M)
            controller.write(0, 0x4000, now=10)
            assert l1s[1].state_of(0x4000) is next_state(
                peer_state, MesiEvent.REMOTE_WRITE)


def _private_holders(hierarchy, config, line_address):
    """Cores holding the line in a bus-visible private cache, with states."""
    holders = {}
    for core_id in range(config.num_cores):
        states = []
        caches = [hierarchy.l1d(core_id)]
        private_l2 = hierarchy.private_l2(core_id)
        if private_l2 is not None:
            caches.append(private_l2)
        for cache in caches:
            line = cache.probe(line_address)
            if line is not None and line.valid:
                states.append(line.state)
        if states:
            holders[core_id] = states
    return holders


def _assert_coherence_invariants(hierarchy, config, lines, context):
    """Single-writer + conservative-directory invariants for every line."""
    for line_address in lines:
        holders = _private_holders(hierarchy, config, line_address)
        private_owners = [core for core, states in holders.items()
                          if any(state.is_private for state in states)]
        # Single-writer: a core with an M/E copy is the *only* core with
        # any valid copy.
        if private_owners:
            assert len(holders) == 1, (
                f"{context}: line {line_address:#x} held privately by "
                f"{private_owners} but also present in {sorted(holders)}")
        # Conservative directory: every actual holder is tracked.
        tracked = hierarchy.snoop_filter.sharers_of(line_address)
        assert set(holders) <= tracked, (
            f"{context}: line {line_address:#x} held by {sorted(holders)} "
            f"but snoop filter tracks only {sorted(tracked)}")
        assert hierarchy.snoop_filter.precise


class TestRandomInterleavingInvariants:
    """Sharer-set and single-writer invariants under random access storms.

    Drives a real multi-core hierarchy (both topologies: shared-L2 and
    private-L2) with a seed-pinned random interleaving of loads, stores,
    committed stores and commit-fills from random cores over a small,
    conflict-heavy line pool, checking the MESI invariants and the snoop
    filter's conservative-superset property after every step.
    """

    LINES = [0x10000 + index * 64 for index in range(24)]
    STEPS = 300

    @pytest.mark.parametrize("topology", ["shared-l2", "private-l2"])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_invariants_hold_under_random_interleaving(self, topology, seed):
        config = (corun_system_config("unprotected",
                                      num_cores=4)
                  if topology == "private-l2"
                  else SystemConfig(mode="unprotected",
                                    num_cores=4))
        hierarchy = NonSpeculativeHierarchy(config)
        rng = random.Random(seed)
        now = 0
        for step in range(self.STEPS):
            now += rng.randrange(1, 40)
            core = rng.randrange(config.num_cores)
            line = rng.choice(self.LINES)
            action = rng.randrange(4)
            if action == 0:
                hierarchy.access(core, line, now)
            elif action == 1:
                hierarchy.access(core, line, now, is_store=True)
            elif action == 2:
                hierarchy.commit_store(core, line, now)
            else:
                hierarchy.commit_fill_l1(core, line, now,
                                         exclusive=rng.random() < 0.5)
            _assert_coherence_invariants(
                hierarchy, config, self.LINES,
                f"{topology}/seed={seed}/step={step}")

    def test_snoop_filter_skips_only_provably_empty_snoops(self):
        """Filtered snoops never change what a full probe would have found."""
        config = SystemConfig(mode="unprotected", num_cores=4)
        hierarchy = NonSpeculativeHierarchy(config)
        rng = random.Random(99)
        now = 0
        for _ in range(200):
            now += rng.randrange(1, 30)
            core = rng.randrange(config.num_cores)
            line = rng.choice(self.LINES)
            is_store = rng.random() < 0.4
            hierarchy.access(core, line, now, is_store=is_store)
            # Compare the filtered snoop against a ground-truth probe of
            # every cache.
            for probe_line in rng.sample(self.LINES, 4):
                requester = rng.randrange(config.num_cores)
                filtered = hierarchy.bus.snoop(requester, probe_line)
                truth = _private_holders(hierarchy, config, probe_line)
                truth.pop(requester, None)
                found = set(filtered.sharers)
                if filtered.dirty_owner is not None:
                    found.add(filtered.dirty_owner)
                if filtered.exclusive_owner is not None:
                    found.add(filtered.exclusive_owner)
                assert found == set(truth), (
                    f"snoop of {probe_line:#x} by {requester} found "
                    f"{sorted(found)}, ground truth {sorted(truth)}")
        assert hierarchy.snoop_filter.filtered_snoops > 0


class TestSnoopFilter:
    def test_tracks_sharers(self):
        snoop_filter = SnoopFilter()
        snoop_filter.record_fill(0, 0x100)
        snoop_filter.record_fill(1, 0x100)
        assert snoop_filter.sharers_of(0x100) == {0, 1}
        assert snoop_filter.needs_snoop(0, 0x100)
        snoop_filter.record_eviction(1, 0x100)
        assert not snoop_filter.needs_snoop(0, 0x100)

    def test_capacity_eviction(self):
        snoop_filter = SnoopFilter(max_entries=2)
        for line in (0x100, 0x200, 0x300):
            snoop_filter.record_fill(0, line)
        assert len(snoop_filter) <= 2

    def test_sharers_of_is_a_read_only_probe(self):
        snoop_filter = SnoopFilter()
        snoop_filter.record_fill(3, 0x100)
        snoop_filter.record_fill(0, 0x100)
        assert snoop_filter.sharers_of(0x100) == {0, 3}
        assert snoop_filter.sharers_of(0x200) == set()
        assert snoop_filter.stats.get("lookups") == 0

    def test_capacity_eviction_makes_the_bus_probe_again(self):
        """A full directory forgets its oldest line and stops filtering:
        a snoop then probes every cache and finds the forgotten copy."""
        snoop_filter = SnoopFilter(max_entries=2)
        bus = CoherenceBus(snoop_filter=snoop_filter)
        l1s = []
        for core in range(2):
            l1s.append(SetAssociativeCache(CacheConfig(
                name=f"l1d{core}", size_bytes=4096, associativity=2,
                hit_latency=2)))
            bus.register_private_cache(core, l1s[core])
        # Core 1 holds 0x1000 privately; core 0 then fills two more lines.
        for core, line in ((1, 0x1000), (0, 0x2000), (0, 0x3000)):
            l1s[core].fill(line, E, now=0)
            bus.note_fill(core, line)
        assert snoop_filter.sharers_of(0x1000) == set()
        assert snoop_filter.sharers_of(0x2000) == {0}
        assert snoop_filter.sharers_of(0x3000) == {0}
        assert snoop_filter.stats.get("entry_evictions") == 1
        assert not snoop_filter.precise
        lookups = snoop_filter.stats.get("lookups")
        found = bus.snoop(0, 0x1000)
        assert found.exclusive_owner == 1
        # The bus no longer consults the directory it cannot trust.
        assert snoop_filter.stats.get("lookups") == lookups
