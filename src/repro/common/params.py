"""Configuration dataclasses for the simulated system.

The default values mirror Table 1 of the MuonTrap paper: an 8-wide
out-of-order core at 2 GHz with a 192-entry ROB, 64-entry issue queue,
32-entry load and store queues, a tournament branch predictor, split 32 KiB /
64 KiB L1 caches, 2 KiB 4-way filter caches with 1-cycle hit latency, a
shared 2 MiB L2 with a stride prefetcher, and DDR3-1600 main memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple


#: Cache replacement policy names, matched case-insensitively, each mapped
#: to the policy it builds (see
#: :func:`repro.caches.replacement.make_replacement_policy`).
REPLACEMENT_POLICIES = {"lru": "lru", "random": "random", "plru": "plru",
                        "tree-plru": "plru", "pseudo-lru": "plru"}


def _require_name_string(mode: object) -> None:
    """Scheme identity is a registry name (see :mod:`repro.schemes`)."""
    if not isinstance(mode, str):
        raise TypeError(f"mode must be a protection scheme name string, "
                        f"got {type(mode).__name__}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of a single cache."""

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 64
    hit_latency: int = 1
    mshrs: int = 4
    replacement: str = "lru"
    prefetcher: Optional[str] = None
    prefetch_degree: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a positive power of two")
        if self.size_bytes % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")
        lines = self.size_bytes // self.line_size
        if self.associativity <= 0 or self.associativity > lines:
            raise ValueError(
                "associativity must be between 1 and the number of lines")
        if lines % self.associativity:
            raise ValueError("lines must divide evenly into sets")
        if not isinstance(self.replacement, str) \
                or self.replacement.lower() not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.replacement!r} "
                f"(known: {', '.join(REPLACEMENT_POLICIES)})")
        # Only "stride" builds a prefetcher (the shared L2's stream one).
        if self.prefetcher not in (None, "stride"):
            raise ValueError(f"unknown prefetcher {self.prefetcher!r} "
                             "(known: None, 'stride')")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class FilterCacheConfig:
    """Geometry of a speculative filter cache (the MuonTrap L0)."""

    size_bytes: int = 2048
    associativity: int = 4
    line_size: int = 64
    hit_latency: int = 1
    mshrs: int = 4

    def __post_init__(self) -> None:
        lines = self.size_bytes // self.line_size
        if lines < 1:
            raise ValueError("filter cache must hold at least one line")
        if self.associativity > lines:
            raise ValueError("associativity larger than number of lines")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.associativity)

    def fully_associative(self) -> "FilterCacheConfig":
        """Return a copy that is fully associative (used by Figure 5)."""
        return replace(self, associativity=self.num_lines)


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Tournament predictor sizes from Table 1."""

    local_entries: int = 2048
    global_entries: int = 8192
    chooser_entries: int = 2048
    btb_entries: int = 4096
    ras_entries: int = 16


@dataclass(frozen=True)
class PipelineConfig:
    """Out-of-order pipeline parameters from Table 1."""

    width: int = 8
    rob_entries: int = 192
    iq_entries: int = 64
    lq_entries: int = 32
    sq_entries: int = 32
    int_registers: int = 256
    fp_registers: int = 256
    int_alus: int = 6
    fp_alus: int = 4
    mult_div_alus: int = 2
    branch_predictor: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig)
    mispredict_penalty: int = 12
    frequency_ghz: float = 2.0

    def __post_init__(self) -> None:
        # The core dispatches and commits ``width`` ops a cycle and holds
        # an op in each window it enters until it commits, so none of
        # these can be empty.
        for name in ("width", "rob_entries", "lq_entries", "sq_entries"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class TLBConfig:
    """Split instruction/data TLBs, 64 entries, fully associative."""

    entries: int = 64
    page_size: int = 4096
    hit_latency: int = 0
    walk_latency: int = 30
    filter_entries: int = 16

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError(f"entries must be at least 1, got "
                             f"{self.entries!r}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a positive power of two, "
                             f"got {self.page_size!r}")
        # ``filter_entries`` is checked where a filter TLB is built
        # (repro.tlb.mmu): schemes without one never read it.


@dataclass(frozen=True)
class MemoryConfig:
    """DRAM timing (DDR3-1600 11-11-11-28 at a 2 GHz core clock)."""

    access_latency: int = 150
    line_size: int = 64


@dataclass(frozen=True)
class ProtectionConfig:
    """Which MuonTrap mechanisms are enabled.

    Figures 8 and 9 of the paper enable these cumulatively:
    ``data_filter_cache`` -> ``coherence_protection`` ->
    ``instruction_filter_cache`` -> ``commit_time_prefetch`` ->
    ``clear_on_misspeculate`` (optional) -> ``parallel_l1_access``
    (optional optimisation).
    """

    data_filter_cache: bool = True
    instruction_filter_cache: bool = True
    filter_tlb: bool = True
    coherence_protection: bool = True
    commit_time_prefetch: bool = True
    clear_on_misspeculate: bool = False
    clear_on_context_switch: bool = True
    parallel_l1_access: bool = False
    #: **Insecure ablation** (off by default): scope MuonTrap's filter-cache
    #: invalidation multicast by the snoop filter instead of broadcasting to
    #: every core.  The paper requires the broadcast to be timing-invariant
    #: precisely because the directory cannot see filter caches; with this
    #: flag set, a speculatively filled filter line whose core holds no
    #: non-speculative copy survives a peer's exclusive upgrade, which both
    #: violates coherence and reintroduces a measurable timing channel.  The
    #: flag exists to quantify that cost; it is a machine-wide fabric
    #: property (any core requesting it scopes the shared bus's multicast).
    insecure_scoped_invalidate: bool = False

    @staticmethod
    def none() -> "ProtectionConfig":
        """All mechanisms disabled (used for the insecure-L0 ablation)."""
        return ProtectionConfig(
            data_filter_cache=False,
            instruction_filter_cache=False,
            filter_tlb=False,
            coherence_protection=False,
            commit_time_prefetch=False,
            clear_on_misspeculate=False,
            clear_on_context_switch=False,
            parallel_l1_access=False,
        )

    @staticmethod
    def full() -> "ProtectionConfig":
        """The default MuonTrap configuration evaluated in the paper."""
        return ProtectionConfig()

    def to_dict(self) -> Dict[str, Any]:
        """A lossless, JSON-ready description (see :mod:`repro.common.machine`)."""
        from repro.common.machine import config_to_dict
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProtectionConfig":
        from repro.common.machine import config_from_dict
        return config_from_dict(payload, cls)


def _default_l1i() -> CacheConfig:
    return CacheConfig(name="l1i", size_bytes=32 * 1024, associativity=2,
                       hit_latency=1, mshrs=4)


def _default_l1d() -> CacheConfig:
    return CacheConfig(name="l1d", size_bytes=64 * 1024, associativity=2,
                       hit_latency=2, mshrs=4)


@dataclass(frozen=True)
class CoreConfig:
    """Complete configuration of one hardware context.

    Bundles everything that can differ between the cores of a heterogeneous
    machine: the out-of-order pipeline, the private cache geometry (L1s and
    optional private L2), the speculative filter caches, the TLBs, and —
    crucially — the protection scheme the core runs under.  A
    :class:`SystemConfig` either derives one identical ``CoreConfig`` per
    core from its machine-level fields (the historical, homogeneous path)
    or carries an explicit per-core list (big.LITTLE mixes, asymmetric
    protection).
    """

    mode: str = "muontrap"
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    l1i: CacheConfig = field(default_factory=_default_l1i)
    l1d: CacheConfig = field(default_factory=_default_l1d)
    private_l2: Optional[CacheConfig] = None
    data_filter: FilterCacheConfig = field(default_factory=FilterCacheConfig)
    inst_filter: FilterCacheConfig = field(default_factory=FilterCacheConfig)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)

    def __post_init__(self) -> None:
        _require_name_string(self.mode)
        if self.l1d.line_size != self.l1i.line_size:
            raise ValueError("a core's L1 line sizes must match")
        if (self.private_l2 is not None
                and self.private_l2.line_size != self.l1d.line_size):
            raise ValueError("private L2 line size must match the core's L1s")

    def with_mode(self, mode: str) -> "CoreConfig":
        return replace(self, mode=mode)

    def with_protection(self, protection: ProtectionConfig) -> "CoreConfig":
        return replace(self, protection=protection)

    def to_dict(self) -> Dict[str, Any]:
        """A lossless, JSON-ready description (see :mod:`repro.common.machine`)."""
        from repro.common.machine import config_to_dict
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CoreConfig":
        from repro.common.machine import config_from_dict
        return config_from_dict(payload, cls)


#: Pipeline of a small in-order-ish efficiency core: 2-wide, shallow
#: windows, a modest predictor.  Used by the big.LITTLE machine presets.
LITTLE_PIPELINE = PipelineConfig(
    width=2, rob_entries=64, iq_entries=16, lq_entries=16, sq_entries=16,
    int_registers=96, fp_registers=96, int_alus=2, fp_alus=1,
    mult_div_alus=1,
    branch_predictor=BranchPredictorConfig(
        local_entries=512, global_entries=2048, chooser_entries=512,
        btb_entries=1024, ras_entries=8),
    mispredict_penalty=8, frequency_ghz=1.2)


def big_core(mode: str = "muontrap",
             private_l2: Optional[CacheConfig] = None,
             protection: Optional[ProtectionConfig] = None) -> CoreConfig:
    """A Table 1 big core, under the requested protection scheme."""
    return CoreConfig(mode=mode, private_l2=private_l2,
                      protection=protection or ProtectionConfig())


def little_core(mode: str = "muontrap",
                private_l2: Optional[CacheConfig] = None,
                protection: Optional[ProtectionConfig] = None) -> CoreConfig:
    """A LITTLE core: 2-wide pipeline, halved L1s, same filter geometry."""
    return CoreConfig(
        mode=mode, pipeline=LITTLE_PIPELINE,
        l1i=CacheConfig(name="l1i", size_bytes=16 * 1024, associativity=2,
                        hit_latency=1, mshrs=2),
        l1d=CacheConfig(name="l1d", size_bytes=32 * 1024, associativity=2,
                        hit_latency=2, mshrs=2),
        private_l2=private_l2,
        protection=protection or ProtectionConfig())


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of a simulated system (Table 1 by default).

    The machine-level fields (``mode``, ``core``, ``l1i``, ...) describe the
    homogeneous case: every hardware context gets the same pipeline, caches
    and protection scheme.  Setting ``cores`` to an explicit per-core
    :class:`CoreConfig` list overrides them per context, which is how
    big.LITTLE machines and asymmetric-protection deployments are built;
    :meth:`core_config` is the single accessor the construction code uses,
    so an explicit list whose entries all equal the derived homogeneous view
    is bit-identical to not passing one at all.
    """

    mode: str = "muontrap"
    num_cores: int = 1
    core: PipelineConfig = field(default_factory=PipelineConfig)
    l1i: CacheConfig = field(default_factory=_default_l1i)
    l1d: CacheConfig = field(default_factory=_default_l1d)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l2", size_bytes=2 * 1024 * 1024, associativity=8,
        hit_latency=20, mshrs=16, prefetcher="stride"))
    #: Optional *private*, unified per-core L2 between the L1s and the
    #: shared ``l2`` (which then plays the role of the LLC).  ``None`` — the
    #: historical topology — keeps the L1s directly on the shared L2.
    #: Multi-programmed co-run systems enable this so each hardware context
    #: owns a full private hierarchy stitched to the LLC through the
    #: coherence bus and snoop filter.
    private_l2: Optional[CacheConfig] = None
    data_filter: FilterCacheConfig = field(default_factory=FilterCacheConfig)
    inst_filter: FilterCacheConfig = field(default_factory=FilterCacheConfig)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)
    #: Optional explicit per-core configurations.  ``None`` (the default)
    #: derives one identical :class:`CoreConfig` per core from the
    #: machine-level fields above; a tuple must have exactly ``num_cores``
    #: entries and makes the machine (potentially) heterogeneous.
    cores: Optional[Tuple[CoreConfig, ...]] = None

    def __post_init__(self) -> None:
        _require_name_string(self.mode)
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.l1d.line_size != self.l2.line_size:
            raise ValueError("cache line sizes must match across the "
                             "hierarchy (section 4.1 of the paper)")
        if (self.private_l2 is not None
                and self.private_l2.line_size != self.l2.line_size):
            raise ValueError("private L2 line size must match the shared "
                             "hierarchy")
        if self.cores is not None:
            if len(self.cores) != self.num_cores:
                raise ValueError(
                    f"per-core config list has {len(self.cores)} entries "
                    f"but num_cores is {self.num_cores}; provide exactly "
                    f"one CoreConfig per hardware context")
            for index, core in enumerate(self.cores):
                if core.l1d.line_size != self.l2.line_size:
                    raise ValueError(
                        f"core {index}: private cache line size "
                        f"{core.l1d.line_size} must match the shared "
                        f"hierarchy's {self.l2.line_size}")
                if core.tlb.page_size != self.tlb.page_size:
                    # The machine has ONE page-table manager, built with
                    # the machine-level page size; a per-core MMU assuming
                    # a different one would translate to wrong frames.
                    raise ValueError(
                        f"core {index}: TLB page size "
                        f"{core.tlb.page_size} must match the machine's "
                        f"{self.tlb.page_size} (one shared page table)")

    # -- per-core views -------------------------------------------------------
    def core_config(self, core_id: int) -> CoreConfig:
        """The complete configuration of one hardware context.

        This is the accessor every construction site (hierarchy, memory
        systems, out-of-order cores) goes through, so homogeneous machines
        and explicit per-core lists share one code path.
        """
        if self.cores is not None:
            return self.cores[core_id]
        return self._homogeneous_core()

    def _homogeneous_core(self) -> CoreConfig:
        return CoreConfig(mode=self.mode, pipeline=self.core, l1i=self.l1i,
                          l1d=self.l1d, private_l2=self.private_l2,
                          data_filter=self.data_filter,
                          inst_filter=self.inst_filter, tlb=self.tlb,
                          protection=self.protection)

    def core_configs(self) -> List[CoreConfig]:
        return [self.core_config(core_id)
                for core_id in range(self.num_cores)]

    def as_heterogeneous(self) -> "SystemConfig":
        """An equivalent config with the per-core list made explicit.

        Used by the differential tests: the result must simulate
        bit-identically to ``self``.
        """
        return replace(self, cores=tuple(self.core_configs()))

    @property
    def core_schemes(self) -> Tuple[str, ...]:
        """Per-core protection-scheme names (registry keys)."""
        return tuple(core.mode for core in self.core_configs())

    @property
    def is_scheme_heterogeneous(self) -> bool:
        """True when different cores run different protection schemes."""
        return len(set(self.core_schemes)) > 1

    @property
    def mode_label(self) -> str:
        """The mode string reports carry: one scheme, or the per-core list."""
        schemes = self.core_schemes
        if len(set(schemes)) == 1:
            return schemes[0]
        return "+".join(schemes)

    # -- uniform overrides ----------------------------------------------------
    def _override(self, **fields) -> "SystemConfig":
        """Apply a machine-wide field override.

        Every ``with_*`` helper routes through here: the machine-level
        field is replaced and, when an explicit per-core list exists, the
        same-named field of every :class:`CoreConfig` entry is replaced
        too (entries actually drive construction, so leaving them stale
        would silently ignore the override).  Sweeping a preset over
        schemes therefore behaves the same as sweeping the homogeneous
        default.
        """
        cores = self.cores
        if cores is not None:
            per_core = {name: value for name, value in fields.items()
                        if name in CoreConfig.__dataclass_fields__}
            cores = tuple(replace(core, **per_core) for core in cores)
        return replace(self, cores=cores, **fields)

    def with_mode(self, mode: str) -> "SystemConfig":
        return self._override(mode=mode)

    def with_protection(self, protection: ProtectionConfig) -> "SystemConfig":
        return self._override(protection=protection)

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Resize to ``num_cores`` contexts.

        An explicit per-core list is tiled round-robin (a 2-entry
        big.LITTLE preset resized to 4 cores becomes big, LITTLE, big,
        LITTLE), so machine presets compose with workloads of any width.
        """
        cores = self.cores
        if cores is not None and len(cores) != num_cores:
            cores = tuple(cores[index % len(cores)]
                          for index in range(num_cores))
        return replace(self, num_cores=num_cores, cores=cores)

    def with_private_l2(self,
                        private_l2: Optional[CacheConfig]) -> "SystemConfig":
        return self._override(private_l2=private_l2)

    def with_core_configs(self,
                          cores: Sequence[CoreConfig]) -> "SystemConfig":
        """An explicitly heterogeneous machine built from per-core configs."""
        return replace(self, num_cores=len(cores), cores=tuple(cores))

    # -- serialisation --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A lossless, JSON-ready machine description.

        The inverse of :meth:`from_dict`; see :mod:`repro.common.machine`
        for the schema (versioned, unknown keys rejected).
        """
        from repro.common.machine import config_to_dict
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SystemConfig":
        """Build a machine from a (possibly partial) description dict."""
        from repro.common.machine import config_from_dict
        return config_from_dict(payload, cls)


#: Default geometry of the optional private per-core L2 used by co-run
#: systems: 256 KiB 8-way, mid-way between the L1s and the shared LLC.
DEFAULT_PRIVATE_L2 = CacheConfig(name="l2p", size_bytes=256 * 1024,
                                 associativity=8, hit_latency=10, mshrs=8)


def corun_system_config(mode: str = "muontrap",
                        num_cores: int = 2,
                        private_l2: bool = True) -> SystemConfig:
    """A multi-programmed co-run system: one private hierarchy per core.

    Each hardware context gets its own L1s (always) and, when
    ``private_l2`` is set, a private unified L2; the shared ``l2`` of the
    base configuration then acts as the LLC behind the coherence bus and
    snoop filter.
    """
    config = SystemConfig(mode=mode, num_cores=num_cores)
    if private_l2:
        config = config.with_private_l2(DEFAULT_PRIVATE_L2)
    return config


#: Geometry of the LITTLE cores' private L2 in the big.LITTLE presets:
#: half the big cores' capacity, slightly faster.
LITTLE_PRIVATE_L2 = CacheConfig(name="l2p", size_bytes=128 * 1024,
                                associativity=8, hit_latency=8, mshrs=4)


def heterogeneous_corun_config(modes: Sequence[str],
                               private_l2: bool = True) -> SystemConfig:
    """A co-run machine of identical big cores under *per-core* schemes.

    One hardware context per entry of ``modes``; every core gets the
    Table 1 pipeline and cache geometry (plus, when ``private_l2`` is set,
    the default private L2), differing only in protection scheme.  This is
    the asymmetric-protection building block the cross-scheme attack
    matrix uses: an attacker core and a victim core under different
    defences on one shared fabric.
    """
    base = corun_system_config(mode=modes[0], num_cores=len(modes),
                               private_l2=private_l2)
    template = base.core_config(0)
    return base.with_core_configs(
        [template.with_mode(mode) for mode in modes])


def biglittle_system_config(
        big_modes: Sequence[str],
        little_modes: Sequence[str]) -> SystemConfig:
    """A big.LITTLE machine: Table 1 big cores beside 2-wide LITTLE cores.

    Each big core owns the default 256 KiB private L2, each LITTLE core a
    128 KiB one; all of them share the LLC, bus and snoop filter.  The
    per-core protection schemes come from the two mode lists.
    """
    cores = ([big_core(mode=mode, private_l2=DEFAULT_PRIVATE_L2)
              for mode in big_modes]
             + [little_core(mode=mode, private_l2=LITTLE_PRIVATE_L2)
                for mode in little_modes])
    base = SystemConfig(mode=cores[0].mode, num_cores=len(cores))
    return base.with_core_configs(cores)
