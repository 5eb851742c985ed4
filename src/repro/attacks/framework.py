"""The attacker/victim harness used by all six attacks of the paper.

Every attack follows the same structure:

1. an *attacker* process primes some microarchitectural state;
2. a *victim* process is tricked into executing a few instructions under
   speculation that touch memory at a secret-dependent location, after
   which the speculation is squashed (the accesses never commit);
3. control returns to the attacker (via a context switch, or the attacker
   runs concurrently on another core), which *probes* the state by timing
   committed accesses and infers the secret.

The harness drives a :class:`~repro.cpu.interface.MemorySystem` directly
rather than going through the out-of-order core: the attacks need precise
control over which accesses are speculative, which commit and when the
protection-domain switches happen, and timing is exactly the latency the
memory system reports.  This mirrors how the paper reasons about the attacks
(Attack boxes 1-6) as sequences of loads/stores with coherence-state
annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.params import SystemConfig
from repro.core.frontend import SchemeFrontend
from repro.cpu.instructions import MicroOp, OpKind, WrongPathAccess
from repro.cpu.interface import MemorySystem
from repro.memory.page_table import PageTableManager
from repro.sim.system import build_memory_system, build_system

#: Virtual addresses used by the attack programs.  The attacker and victim
#: are distinct processes, so equal virtual addresses do not alias unless a
#: page is explicitly shared.
ATTACKER_PROCESS = 100
VICTIM_PROCESS = 200
SANDBOX_PROCESS = 300

SHARED_ARRAY_BASE = 0x0200_0000
ATTACKER_PRIVATE_BASE = 0x0300_0000
VICTIM_SECRET_ADDRESS = 0x0400_8000
LINE_SIZE = 64
PAGE_SIZE = 4096


@dataclass
class AttackOutcome:
    """What an attack run produced."""

    name: str
    mode: str
    actual_secret: int
    recovered_secret: Optional[int]
    probe_latencies: Dict[int, int] = field(default_factory=dict)
    notes: str = ""

    @property
    def succeeded(self) -> bool:
        """True when the attacker recovered the right secret value."""
        return (self.recovered_secret is not None
                and self.recovered_secret == self.actual_secret)

    @property
    def signal_margin(self) -> int:
        """Latency gap between the best and second-best probe candidates."""
        if len(self.probe_latencies) < 2:
            return 0
        ordered = sorted(self.probe_latencies.values())
        return ordered[1] - ordered[0]


class AttackEnvironment:
    """A memory system plus the attacker/victim processes and shared pages."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 mode: str = "unprotected",
                 num_cores: int = 1, secret: int = 3,
                 num_secret_values: int = 8,
                 shared_bytes: Optional[int] = None) -> None:
        base = config or SystemConfig()
        self.config = base.with_mode(mode).with_cores(num_cores)
        self.secret = secret % num_secret_values
        self.num_secret_values = num_secret_values
        self.page_tables = PageTableManager(page_size=PAGE_SIZE)
        self.memory: MemorySystem = build_memory_system(
            self.config, page_tables=self.page_tables)
        self.now = 1000
        # Pre-create the two address spaces and share the probe array pages
        # (models a shared library or page-deduplicated data).  The pages
        # are allocated consecutively, so the shared region is physically
        # contiguous — which is what lets the inclusion-policy attack build
        # eviction sets from virtual addresses.
        attacker_space = self.page_tables.address_space(ATTACKER_PROCESS)
        victim_space = self.page_tables.address_space(VICTIM_PROCESS)
        self.shared_bytes = shared_bytes or max(
            PAGE_SIZE, num_secret_values * 4 * LINE_SIZE)
        for offset in range(0, self.shared_bytes, PAGE_SIZE):
            attacker_space.share_page_with(victim_space,
                                           SHARED_ARRAY_BASE + offset)
        self._current_process: Dict[int, int] = {}

    # -- time -----------------------------------------------------------------
    def advance(self, cycles: int = 50) -> int:
        self.now += cycles
        return self.now

    # -- protection-domain control ------------------------------------------------
    def run_as(self, core_id: int, process_id: int) -> None:
        """Context-switch ``core_id`` to ``process_id`` (flushes under MuonTrap)."""
        if self._current_process.get(core_id) == process_id:
            return
        self._current_process[core_id] = process_id
        if isinstance(self.memory, SchemeFrontend):
            self.memory.switch_to_process(core_id, process_id, self.now)
        else:   # a scheme implementing MemorySystem directly
            self.memory.context_switch(core_id, self.now)
        self.advance(200)

    # -- attacker operations (always committed) --------------------------------------
    def attacker_load(self, address: int, core_id: int = 0) -> int:
        """A committed attacker load; returns its observed latency."""
        self.run_as(core_id, ATTACKER_PROCESS)
        result = self.memory.load(core_id, ATTACKER_PROCESS, address,
                                  self.now, speculative=False)
        self.memory.commit_load(core_id, ATTACKER_PROCESS, address,
                                self.now + result.latency)
        self.advance(result.latency + 5)
        return result.latency

    def attacker_store(self, address: int, core_id: int = 0) -> int:
        """A committed attacker store; returns the commit-visible latency."""
        self.run_as(core_id, ATTACKER_PROCESS)
        result = self.memory.store_address_ready(core_id, ATTACKER_PROCESS,
                                                 address, self.now,
                                                 speculative=False)
        total = result.latency + self.memory.commit_store(
            core_id, ATTACKER_PROCESS, address, self.now + result.latency)
        self.advance(total + 5)
        return total

    def attacker_fetch(self, address: int, core_id: int = 0) -> int:
        """A committed attacker instruction fetch (for the I-cache attack)."""
        self.run_as(core_id, ATTACKER_PROCESS)
        result = self.memory.fetch(core_id, ATTACKER_PROCESS, address,
                                   self.now, speculative=False)
        self.memory.commit_fetch(core_id, ATTACKER_PROCESS, address,
                                 self.now + result.latency)
        self.advance(result.latency + 5)
        return result.latency

    # -- victim operations -------------------------------------------------------------
    def victim_speculative_load(self, address: int, core_id: int = 0) -> int:
        """A victim load executed under (ultimately squashed) speculation."""
        self.run_as(core_id, VICTIM_PROCESS)
        result = self.memory.load(core_id, VICTIM_PROCESS, address, self.now,
                                  speculative=True)
        self.advance(result.latency + 1)
        return result.latency

    def victim_speculative_fetch(self, address: int, core_id: int = 0) -> int:
        """A victim instruction fetch on a mispredicted (squashed) path."""
        self.run_as(core_id, VICTIM_PROCESS)
        result = self.memory.fetch(core_id, VICTIM_PROCESS, address, self.now,
                                   speculative=True)
        self.advance(result.latency + 1)
        return result.latency

    def victim_squash(self, core_id: int = 0) -> None:
        """The victim's misprediction is discovered; speculation is rolled back."""
        self.memory.squash(core_id, self.now)
        self.advance(20)

    # -- address helpers ------------------------------------------------------------------
    def probe_address(self, value: int) -> int:
        """Shared-array element whose cache state encodes ``value``."""
        return SHARED_ARRAY_BASE + value * 4 * LINE_SIZE

    def attacker_private_address(self, index: int) -> int:
        return ATTACKER_PRIVATE_BASE + index * LINE_SIZE


class CrossCoreAttackEnvironment:
    """Attacker and victim on *different cores* of a real simulated machine.

    Unlike :class:`AttackEnvironment`, which drives a memory system
    directly, this harness builds a complete
    :class:`~repro.sim.system.SimulatedSystem` — out-of-order cores,
    per-core private caches (and filter caches, per protection mode),
    coherence bus, snoop filter, shared LLC — and executes real micro-op
    sequences on the cores:

    * the *victim* transmits by executing a deliberately mispredicted
      branch whose wrong-path loads touch secret-dependent addresses; the
      accesses issue speculatively through the fabric and are squashed by
      the core, exactly as in a real Spectre gadget;
    * the *attacker* probes by executing committed loads on its own core
      and timing them through the core's register-dependency chain
      (:meth:`~repro.cpu.core.OutOfOrderCore.register_ready_time`), so the
      observed latency is precisely what the coherence fabric charged.

    The attacker always runs on core 0, the victim on core 1; systems with
    more cores leave the extra contexts idle (they still participate in
    snoops and broadcasts).
    """

    ATTACKER_CORE = 0
    VICTIM_CORE = 1

    #: Per-core code lines; a probe pair reuses its pcs so the instruction
    #: fetch path stays warm and never perturbs a measurement.
    ATTACKER_CODE = 0x0050_0000
    VICTIM_CODE = 0x0060_0000

    #: Registers used by the timing chain.
    _SYNC_REG = 60
    _DEST_REG = 61

    def __init__(self, mode: str = "unprotected",
                 num_cores: int = 2, secret: int = 3,
                 num_secret_values: int = 8, seed: int = 0,
                 config: Optional[SystemConfig] = None,
                 core_modes: Optional[Sequence[str]] = None
                 ) -> None:
        base = config or SystemConfig()
        if core_modes is not None:
            # Asymmetric protection: one scheme per core (attacker on core
            # 0, victim on core 1).  Each core keeps its own geometry from
            # ``config`` (a big.LITTLE base stays big.LITTLE); only the
            # protection scheme is overridden, so the threat matrix
            # isolates the victim's defence.
            if len(core_modes) < 2:
                raise ValueError(
                    "a cross-core attack needs at least two cores")
            num_cores = len(core_modes)
            sized = base.with_cores(num_cores)
            self.config = sized.with_core_configs(
                [sized.core_config(index).with_mode(core_mode)
                 for index, core_mode in enumerate(core_modes)])
        else:
            if num_cores < 2:
                raise ValueError(
                    "a cross-core attack needs at least two cores")
            self.config = base.with_mode(mode).with_cores(num_cores)
        self.mode = mode
        self.secret = secret % num_secret_values
        self.num_secret_values = num_secret_values
        process_ids = [ATTACKER_PROCESS] + [VICTIM_PROCESS] * (num_cores - 1)
        self.system = build_system(self.config, seed=seed,
                                   process_ids=process_ids)
        self.attacker = self.system.core(self.ATTACKER_CORE)
        self.victim = self.system.core(self.VICTIM_CORE)
        # Share the probe-array pages between the two address spaces
        # (models a shared library or page-deduplicated data).
        attacker_space = self.system.page_tables.address_space(
            ATTACKER_PROCESS)
        victim_space = self.system.page_tables.address_space(VICTIM_PROCESS)
        self.shared_bytes = max(PAGE_SIZE, num_secret_values * 4 * LINE_SIZE)
        for offset in range(0, self.shared_bytes, PAGE_SIZE):
            attacker_space.share_page_with(victim_space,
                                           SHARED_ARRAY_BASE + offset)
        self._attacker_space = attacker_space
        self._victim_space = victim_space
        # Warm both cores' code lines and timing chains so the first real
        # measurement is not polluted by cold instruction fetches.
        self.attacker_timed_load(self.attacker_private_address(0))
        self.victim_committed_work(2)

    # -- address helpers ------------------------------------------------------
    def probe_address(self, value: int) -> int:
        """Shared-array element whose cache state encodes ``value``."""
        return SHARED_ARRAY_BASE + value * 4 * LINE_SIZE

    def attacker_private_address(self, index: int) -> int:
        return ATTACKER_PRIVATE_BASE + index * LINE_SIZE

    def attacker_physical(self, virtual_address: int) -> int:
        """The attacker-space physical address (allocates on first use)."""
        return self._attacker_space.translate(virtual_address)

    def shared_physical(self, virtual_address: int) -> int:
        return self._victim_space.translate(virtual_address)

    # -- attacker operations (committed, on core 0) ---------------------------
    def attacker_timed_load(self, virtual_address: int) -> int:
        """Execute a committed attacker load; returns its memory latency.

        The load depends on a just-produced register, so its issue time is
        pinned to the producer's completion; the difference between the two
        completion times is exactly the latency the memory system charged.
        The producer in turn depends on the *previous* timed load, which
        serialises the attacker's probes — each one issues only after the
        last completed, exactly like the dependency chains real timing
        attacks build around ``rdtsc``.
        """
        core = self.attacker
        pc = self.ATTACKER_CODE
        core.execute_op(MicroOp(kind=OpKind.INT_ALU, pc=pc,
                                src_regs=(self._DEST_REG,),
                                dst_reg=self._SYNC_REG))
        start = core.register_ready_time(self._SYNC_REG)
        core.execute_op(MicroOp(kind=OpKind.LOAD, pc=pc + 4,
                                address=virtual_address,
                                src_regs=(self._SYNC_REG,),
                                dst_reg=self._DEST_REG))
        return core.register_ready_time(self._DEST_REG) - start

    def attacker_probe_all(self) -> Dict[int, int]:
        """Time a committed reload of every probe-array element."""
        return {value: self.attacker_timed_load(self.probe_address(value))
                for value in range(self.num_secret_values)}

    def attacker_store(self, virtual_address: int) -> None:
        """A committed attacker store, through the real core.

        The commit-time write obtains exclusive ownership on the fabric
        and — when the attacker core runs MuonTrap — multicasts a
        filter-cache invalidation to its peers (section 4.5), which is
        the event the scoped-invalidate ablation makes conditional.
        """
        self.attacker.execute_op(MicroOp(kind=OpKind.STORE,
                                         pc=self.ATTACKER_CODE + 128,
                                         address=virtual_address))

    # -- test instrumentation ---------------------------------------------------
    def victim_probe_latencies(self) -> Dict[int, int]:
        """The victim's speculative reload latency for every candidate.

        Measured directly against the victim core's memory system — this
        is measurement instrumentation for the scoped-invalidate
        ablation, not an attacker capability: a stale line the
        invalidation multicast failed to reach shows up as a 1-cycle
        filter hit only for the secret-dependent candidate, i.e. as
        secret-dependent timing inside the victim's own execution.
        """
        memory = self.victim.memory
        now = max(self.victim.current_cycle,
                  self.attacker.current_cycle) + 10_000
        latencies: Dict[int, int] = {}
        for value in range(self.num_secret_values):
            result = memory.load(self.VICTIM_CORE, VICTIM_PROCESS,
                                 self.probe_address(value), now,
                                 speculative=True)
            latencies[value] = result.latency
            now += 1_000
        return latencies

    # -- victim operations (on core 1) ----------------------------------------
    def victim_committed_work(self, count: int = 4) -> None:
        """Committed victim instructions (warms its fetch path / clock)."""
        for _ in range(count):
            self.victim.execute_op(MicroOp(kind=OpKind.INT_ALU,
                                           pc=self.VICTIM_CODE,
                                           dst_reg=self._SYNC_REG))

    def victim_load_secret(self) -> None:
        """The victim's committed load of its own secret (ordinary work)."""
        self.victim.execute_op(MicroOp(kind=OpKind.LOAD, pc=self.VICTIM_CODE,
                                       address=VICTIM_SECRET_ADDRESS,
                                       dst_reg=9))

    def victim_speculative_touch(self, addresses: Sequence[int],
                                 load_secret: bool = True) -> None:
        """The victim's Spectre gadget, through the real core.

        A committed load reads the victim's secret (unless the caller
        already issued it via :meth:`victim_load_secret`), then a
        deliberately mispredicted branch issues wrong-path loads at the
        given (secret-dependent) addresses.  The core sends them into the
        memory system speculatively and squashes them when the branch
        resolves — none of them ever commits.
        """
        core = self.victim
        pc = self.VICTIM_CODE
        if load_secret:
            self.victim_load_secret()
        wrong_path = [WrongPathAccess(address=address, issue_offset=index + 1)
                      for index, address in enumerate(addresses)]
        core.execute_op(MicroOp(kind=OpKind.BRANCH, pc=pc + 4, taken=False,
                                target=pc + 8, force_mispredict=True,
                                wrong_path=wrong_path))


def classify_probe(latencies: Dict[int, int]) -> Tuple[Optional[int], int]:
    """Pick the value whose probe was distinctly fastest.

    Returns ``(value, margin)``; ``value`` is None when no candidate is
    clearly faster than the rest (margin < 2 cycles), i.e. the side channel
    carried no signal.
    """
    if not latencies:
        return None, 0
    ordered = sorted(latencies.items(), key=lambda item: item[1])
    if len(ordered) == 1:
        return ordered[0][0], 0
    margin = ordered[1][1] - ordered[0][1]
    if margin < 2:
        return None, margin
    return ordered[0][0], margin


def run_attack_for_modes(attack_factory, modes: Sequence[str],
                         **kwargs) -> Dict[str, AttackOutcome]:
    """Run one attack against several protection modes (experiment helper)."""
    outcomes: Dict[str, AttackOutcome] = {}
    for mode in modes:
        attack = attack_factory(mode=mode, **kwargs)
        outcomes[mode] = attack.run()
    return outcomes
