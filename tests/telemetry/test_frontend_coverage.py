"""Tracer and metrics-sampler coverage of every scheme frontend.

The tracer and the sampler read each core's
:class:`~repro.core.frontend.CoreState`, so every built-in scheme must
trace all of its page walks and L0 installs and gauge every L0.  A scheme
that implements :class:`~repro.cpu.interface.MemorySystem` directly has
no per-core state to read; it must still run instrumented.
"""

import pytest

from repro import api
from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import SystemConfig
from repro.cpu.interface import MemorySystem
from repro.schemes import SchemeSpec, register_scheme, unregister_scheme

BUILTIN_SCHEMES = ["unprotected", "insecure-l0", "muontrap",
                   "invisispec-spectre", "invisispec-future",
                   "stt-spectre", "stt-future"]

#: Statistics-tree names of the per-core L0 caches.
L0_UNITS = ("data_filter", "inst_filter", "data_l0", "inst_l0")

INSTRUCTIONS = 2000


def instrumented(machine, scheme=None):
    return api.simulate("mcf", machine, scheme=scheme,
                        instructions=INSTRUCTIONS, collect_stats=True,
                        metrics_every=500, trace=True)


def counted(stats, suffix):
    return sum(value for path, value in stats.items()
               if path.endswith(suffix))


class TestBuiltinSchemes:
    @pytest.mark.parametrize("scheme", BUILTIN_SCHEMES)
    def test_every_walk_install_and_l0_is_observed(self, scheme):
        outcome = instrumented(None, scheme)
        events = outcome.tracer.counts()
        walks = counted(outcome.stats, ".walker.walks")
        assert walks > 0
        assert events.get(("tlb", "walk"), 0) == walks
        fills = sum(counted(outcome.stats, f".{unit}.fills")
                    for unit in L0_UNITS)
        assert events.get(("filter", "install"), 0) == fills
        # "core0.data_filter" for system.memory_system.core0.data_filter.*
        l0s = {".".join(path.split(".")[-3:-1]) for path in outcome.stats
               if path.split(".")[-2] in L0_UNITS}
        gauges = {column[:-len(".occupancy")]
                  for column in outcome.timeseries.columns
                  if column.endswith(".occupancy")}
        assert gauges == l0s
        if scheme in ("insecure-l0", "muontrap"):
            assert fills > 0 and len(gauges) == 2


class ForwardingMemorySystem(MemorySystem):
    """A scheme implementing MemorySystem directly, not SchemeFrontend.

    Every request goes to an unprotected frontend it keeps to itself, so
    it times exactly like the unprotected baseline.
    """

    name = "forwarding"

    def __init__(self, config, **kwargs):
        self._inner = UnprotectedMemorySystem(config, **kwargs)
        self.hierarchy = self._inner.hierarchy

    def load(self, *args, **kwargs):
        return self._inner.load(*args, **kwargs)

    def store_address_ready(self, *args, **kwargs):
        return self._inner.store_address_ready(*args, **kwargs)

    def fetch(self, *args, **kwargs):
        return self._inner.fetch(*args, **kwargs)

    def commit_load(self, *args, **kwargs):
        return self._inner.commit_load(*args, **kwargs)

    def commit_store(self, *args, **kwargs):
        return self._inner.commit_store(*args, **kwargs)

    def drain(self, core_id, now):
        self._inner.drain(core_id, now)


@pytest.fixture
def forwarding_scheme():
    register_scheme(SchemeSpec(name="forwarding",
                               factory=ForwardingMemorySystem))
    yield
    unregister_scheme("forwarding")


class TestPlainMemorySystemScheme:
    def test_registry_still_accepts_any_memory_system(
            self, forwarding_scheme):
        outcome = instrumented(None, "forwarding")
        events = outcome.tracer.counts()
        assert events.get(("cache", "miss"), 0) > 0
        assert len(outcome.timeseries) >= 2
        reference = api.simulate("mcf", "unprotected",
                                 instructions=INSTRUCTIONS)
        assert outcome.cycles == reference.cycles

    def test_skipped_beside_a_frontend_on_a_mixed_machine(
            self, forwarding_scheme):
        machine = SystemConfig(num_cores=2).with_mode(
            "muontrap").as_heterogeneous()
        machine = machine.with_core_configs(
            (machine.cores[0], machine.cores[1].with_mode("forwarding")))
        outcome = api.simulate("mix-pointer-stream", machine,
                               instructions=600, collect_stats=True,
                               metrics_every=500, trace=True)
        units = {event.detail["unit"] for event in outcome.tracer.events
                 if event.category == "filter"}
        assert units <= {"data_filter", "inst_filter"}
        assert {event.core for event in outcome.tracer.events
                if event.category == "filter"} == {0}
        assert "core0.data_filter.occupancy" in outcome.timeseries.columns
        assert not any(column.startswith("core1.")
                       for column in outcome.timeseries.columns)
