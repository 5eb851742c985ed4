"""Property tests: the filter TLB keeps speculation out of the main TLB,
and a commit's translation changes only what section 4.7 says it does.

Section 4.7 isolates speculative translations in a filter TLB so that they
cannot prime or probe the non-speculative TLB.  Random sequences of
speculative and non-speculative translations, commits and domain switches
over three processes and six pages run against a 4-entry main TLB, with a
2-entry filter TLB and without one, so the tables evict.  One process id
is above ``2**32``, so a TLB key that packs small process ids would alias.
After every step:

* the main TLB holds exactly the pages of a reference LRU model, in LRU
  order.  In the model every main-TLB hit (speculative or not) and every
  walk that fills the main TLB makes its page the most recently used, and
  so does every commit when there is a filter TLB;
* with a filter TLB, a speculative translation neither adds nor evicts a
  main-TLB entry, and a domain switch leaves the filter TLB empty;
* a commit returns the page table's physical address for the access, and
  counts a promotion exactly when the filter TLB held the page;
* a commit counts no TLB hit or miss and no walk, and without a filter
  TLB it leaves the main TLB's contents and LRU order as they were;
* ``tlb.hits + tlb.misses`` equals the translations made, and
  ``walker.walks`` equals those that missed both TLBs.
"""

from collections import OrderedDict

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.common.params import TLBConfig
from repro.memory.page_table import PageTableManager
from repro.tlb.mmu import MMU

PAGE = 4096
MAIN_ENTRIES = 4
PROCESSES = (0, 1, 2**32 + 1)
PAGES = range(6)
COUNTERS = ("tlb.hits", "tlb.misses", "walker.walks")

_page = st.tuples(st.sampled_from(PROCESSES), st.sampled_from(PAGES))
_step = st.one_of(
    st.tuples(st.just("translate"), _page, st.booleans()),
    st.tuples(st.just("commit"), _page),
    st.tuples(st.just("switch")),
)
_steps = st.lists(_step, min_size=1, max_size=60)
_offset = st.integers(min_value=0, max_value=PAGE - 1)


def main_tlb(mmu):
    """Every (process, page) the main TLB holds, with its frame."""
    return {(process, page): mmu.probe(process, page * PAGE)
            for process in PROCESSES for page in PAGES
            if mmu.probe(process, page * PAGE) is not None}


def lru_order(mmu):
    """The main TLB's (process, page) pairs, least recently used first."""
    return [(key >> 64, key & (2**64 - 1)) for key in mmu._tlb]


def run_steps(steps, offset, use_filter_tlb):
    page_tables = PageTableManager(page_size=PAGE)
    mmu = MMU(TLBConfig(entries=MAIN_ENTRIES, filter_entries=2,
                        page_size=PAGE),
              page_tables, use_filter_tlb=use_filter_tlb)
    # The reference LRU model of the main TLB: (process, page), least
    # recently used first.
    model = OrderedDict()

    def use(key):
        if key in model:
            model.move_to_end(key)
        else:
            if len(model) >= MAIN_ENTRIES:
                model.popitem(last=False)
            model[key] = None

    translations = double_misses = promotions = 0
    for step in steps:
        before = main_tlb(mmu)
        if step[0] == "translate":
            (process, page), speculative = step[1], step[2]
            address = page * PAGE + offset
            missed_both = (mmu.probe(process, address) is None
                           and mmu.probe_filter(process, address) is None)
            fills_main = not (speculative and use_filter_tlb)
            if (process, page) in model or (missed_both and fills_main):
                use((process, page))
            physical, _ = mmu.translate(process, address, speculative)
            translations += 1
            double_misses += missed_both
            assert physical == page_tables.address_space(process).translate(
                address)
            if not fills_main:
                assert main_tlb(mmu) == before
        elif step[0] == "commit":
            process, page = step[1]
            address = page * PAGE + offset
            held = mmu.probe_filter(process, address) is not None
            counters = [mmu.stats.get(name) for name in COUNTERS]
            order = lru_order(mmu)
            if use_filter_tlb:
                use((process, page))
            physical = mmu.commit_translation(process, address)
            promotions += held
            assert physical == page_tables.address_space(process).translate(
                address)
            assert [mmu.stats.get(name) for name in COUNTERS] == counters
            if use_filter_tlb:
                assert mmu.probe(process, address) == physical // PAGE
            else:
                assert lru_order(mmu) == order
        else:
            mmu.context_switch()
            assert mmu.filter_occupancy() == 0
            assert main_tlb(mmu) == before
        assert lru_order(mmu) == list(model)
        assert set(main_tlb(mmu)) == set(model)
        assert mmu.filter_occupancy() <= 2
        assert len(main_tlb(mmu)) <= MAIN_ENTRIES
        if use_filter_tlb:
            assert mmu.stats.get("filter_tlb.promotions") == promotions
        assert (mmu.stats.get("tlb.hits") + mmu.stats.get("tlb.misses")
                == translations)
        assert mmu.stats.get("walker.walks") == double_misses


@seed(1234)
@settings(max_examples=150, deadline=None)
@given(steps=_steps, offset=_offset)
def test_filter_tlb_isolates_speculative_translations(steps, offset):
    run_steps(steps, offset, use_filter_tlb=True)


@seed(1234)
@settings(max_examples=150, deadline=None)
@given(steps=_steps, offset=_offset)
def test_commit_without_a_filter_tlb_changes_no_tlb_state(steps, offset):
    run_steps(steps, offset, use_filter_tlb=False)
