"""Property-based invariants of the MuonTrap memory system.

These encode the paper's two central guarantees as executable properties:

1. *Speculation leaves no non-speculative trace*: after any sequence of
   speculative loads/fetches followed by a squash and a protection-domain
   switch, no line touched only speculatively is present in the L1, the L2
   or the filter caches.
2. *Committed data is architecturally visible*: a load that commits always
   ends up with its line in the committing core's L1.
"""

from hypothesis import given, settings, strategies as st

from repro.common.params import SystemConfig
from repro.core.muontrap import MuonTrapMemorySystem


def build(num_cores=1):
    return MuonTrapMemorySystem(SystemConfig(mode="muontrap",
                                             num_cores=num_cores))


addresses = st.lists(
    st.integers(min_value=0, max_value=1 << 20).map(lambda v: 0x10_0000 + v * 8),
    min_size=1, max_size=40)


@settings(max_examples=20, deadline=None)
@given(addresses=addresses)
def test_squashed_speculation_leaves_no_trace_after_domain_switch(addresses):
    memory = build()
    now = 100
    for address in addresses:
        memory.load(0, 0, address, now, speculative=True)
        now += 5
    memory.squash(0, now)
    memory.switch_to_process(0, 1, now)
    space = memory.page_tables.address_space(0)
    for address in addresses:
        physical = space.translate(address)
        assert not memory.data_filter(0).contains_physical(physical)
        assert not memory.hierarchy.l1d(0).contains(physical)
        assert not memory.hierarchy.l2.contains(physical)


@settings(max_examples=20, deadline=None)
@given(addresses=addresses)
def test_committed_loads_always_reach_the_l1(addresses):
    memory = build()
    now = 100
    for address in addresses:
        memory.load(0, 0, address, now, speculative=True)
        memory.commit_load(0, 0, address, now + 300)
        now += 5
    space = memory.page_tables.address_space(0)
    for address in addresses:
        physical = space.translate(address)
        assert memory.hierarchy.l1d(0).contains(physical)


@settings(max_examples=15, deadline=None)
@given(addresses=addresses)
def test_filter_flush_is_complete_and_idempotent(addresses):
    memory = build()
    for index, address in enumerate(addresses):
        memory.load(0, 0, address, 100 + index, speculative=True)
    memory.switch_to_process(0, 1)
    assert memory.data_filter(0).occupancy() == 0
    memory.switch_to_process(0, 2)
    assert memory.data_filter(0).occupancy() == 0
