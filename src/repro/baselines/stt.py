"""A behavioural model of Speculative Taint Tracking (Yu et al., MICRO 2019).

STT lets speculative loads execute and fill the caches normally, but taints
their results and blocks *transmit* instructions (loads, stores and other
instructions whose operands could leak the value through a covert channel)
from executing until the source load becomes safe.  Two variants match the
paper's comparison:

* ``STT-Spectre`` — a load's value untaints once all older branches have
  resolved (the Spectre threat model).
* ``STT-Future``  — the value only untaints when the load can no longer be
  squashed (effectively at commit), the futuristic threat model.

The memory side therefore behaves exactly like the unprotected hierarchy;
the cost comes from the *delays imposed on dependent instructions*, which
the out-of-order core model applies when
:attr:`delays_dependent_transmitters` is set.  Workloads with dependent
chains of loads (pointer chasing: mcf, omnetpp, astar, canneal) suffer the
most, matching the paper's observations.
"""

from __future__ import annotations

from repro.baselines.unprotected import UnprotectedMemorySystem
from repro.common.params import SystemConfig


class STTMemorySystem(UnprotectedMemorySystem):
    """Unprotected memory side plus taint-based issue restrictions."""

    #: Signals the core model that dependent transmit instructions must wait
    #: for their source load's visibility point before issuing.
    delays_dependent_transmitters = True

    def __init__(self, config: SystemConfig, future_variant: bool = False,
                 **kwargs) -> None:
        self.future_variant = future_variant
        self.name = "stt-future" if future_variant else "stt-spectre"
        super().__init__(config, **kwargs)
        self._delayed_forwards = self.stats.counter(
            "delayed_forwards",
            "dependent transmit instructions held back by taint")

    def record_delayed_forward(self) -> None:
        """Called by the core each time taint stalls a dependent instruction."""
        self._delayed_forwards.increment()

    @property
    def delayed_forwards(self) -> int:
        return self._delayed_forwards.value


# -- scheme registration ------------------------------------------------------
from repro.schemes import SchemeSpec, _register_builtin


def _build_stt_spectre(config, **kwargs):
    return STTMemorySystem(config, future_variant=False, **kwargs)


def _build_stt_future(config, **kwargs):
    return STTMemorySystem(config, future_variant=True, **kwargs)


_register_builtin(SchemeSpec(
    name="stt-spectre",
    factory=_build_stt_spectre,
    display_name="STT-Spectre",
    description="Speculative taint tracking: dependent transmitters wait "
                "for branch resolution (Spectre threat model).",
    timing_invariant=True,
    delays_transmitters=True,
    figure_series=True,
    builtin=True))

_register_builtin(SchemeSpec(
    name="stt-future",
    factory=_build_stt_future,
    display_name="STT-Future",
    description="STT under the futuristic threat model (taint clears only "
                "when the load can no longer be squashed).",
    timing_invariant=True,
    delays_transmitters=True,
    figure_series=True,
    builtin=True))
