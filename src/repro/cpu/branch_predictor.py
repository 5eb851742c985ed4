"""The tournament branch predictor of Table 1.

A local predictor (2048-entry pattern history), a global predictor
(8192-entry gshare) and a 2048-entry chooser, plus a 4096-entry branch
target buffer.  Table 1's 16-entry return address stack is not modelled:
traces have no call or return ops, so ``ras_entries`` only describes the
machine.  The workload generator produces branch *outcomes*; the
predictor decides which of them the core mispredicts, so the
misprediction rate (and therefore the volume of wrong-path execution each
workload produces) is an emergent property of the branch behaviour encoded
in the workload profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import BranchPredictorConfig
from repro.common.statistics import StatGroup


class SaturatingCounter:
    """An n-bit saturating counter used by all the predictor tables."""

    __slots__ = ("value", "maximum")

    def __init__(self, bits: int = 2, initial: Optional[int] = None) -> None:
        self.maximum = (1 << bits) - 1
        self.value = initial if initial is not None else (self.maximum + 1) // 2

    @property
    def taken(self) -> bool:
        return self.value > self.maximum // 2

    def update(self, taken: bool) -> None:
        if taken:
            self.value = min(self.maximum, self.value + 1)
        else:
            self.value = max(0, self.value - 1)


class BranchTargetBuffer:
    """Maps branch PCs to their last seen targets."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._table: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def lookup(self, pc: int) -> Optional[int]:
        return self._table.get(self._index(pc))

    def update(self, pc: int, target: int) -> None:
        self._table[self._index(pc)] = target

    def flush(self) -> None:
        """BTB isolation on domain switches (variant-2 mitigation hook)."""
        self._table.clear()


class TournamentPredictor:
    """Local + gshare global predictors arbitrated by a chooser."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.config = config or BranchPredictorConfig()
        self._local_history: List[int] = [0] * self.config.local_entries
        self._local_counters = [SaturatingCounter()
                                for _ in range(self.config.local_entries)]
        self._global_counters = [SaturatingCounter()
                                 for _ in range(self.config.global_entries)]
        self._chooser = [SaturatingCounter()
                         for _ in range(self.config.chooser_entries)]
        self._global_history = 0
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        stats = stats or StatGroup("branch_predictor")
        self.stats = stats
        self._predictions = stats.counter("predictions")
        self._mispredictions = stats.counter("mispredictions")
        self._btb_misses = stats.counter("btb_misses")

    # -- index helpers ----------------------------------------------------------
    def _local_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.local_entries

    def _global_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._global_history) % self.config.global_entries

    def _chooser_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.chooser_entries

    # -- prediction / update ------------------------------------------------------
    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        self._predictions.increment()
        local_idx = self._local_index(pc)
        pattern = self._local_history[local_idx] % self.config.local_entries
        local_prediction = self._local_counters[pattern].taken
        global_prediction = self._global_counters[self._global_index(pc)].taken
        use_global = self._chooser[self._chooser_index(pc)].taken
        return global_prediction if use_global else local_prediction

    def predict_target(self, pc: int) -> Optional[int]:
        target = self.btb.lookup(pc)
        if target is None:
            self._btb_misses.increment()
        return target

    def update(self, pc: int, taken: bool,
               target: Optional[int] = None) -> bool:
        """Update all structures; returns True if the branch was mispredicted."""
        local_idx = self._local_index(pc)
        pattern = self._local_history[local_idx] % self.config.local_entries
        local_prediction = self._local_counters[pattern].taken
        global_idx = self._global_index(pc)
        global_prediction = self._global_counters[global_idx].taken
        chooser_idx = self._chooser_index(pc)
        use_global = self._chooser[chooser_idx].taken
        prediction = global_prediction if use_global else local_prediction

        mispredicted = prediction != taken
        if taken and target is not None:
            predicted_target = self.btb.lookup(pc)
            if predicted_target != target:
                mispredicted = True
            self.btb.update(pc, target)
        if mispredicted:
            self._mispredictions.increment()

        # Chooser trains toward whichever component was right.
        if local_prediction != global_prediction:
            self._chooser[chooser_idx].update(global_prediction == taken)
        self._local_counters[pattern].update(taken)
        self._global_counters[global_idx].update(taken)
        self._local_history[local_idx] = (
            (self._local_history[local_idx] << 1) | int(taken)) & 0x3FF
        self._global_history = (
            (self._global_history << 1) | int(taken)) & 0x1FFF
        return mispredicted

    # -- statistics ------------------------------------------------------------------
    @property
    def predictions(self) -> int:
        return self._predictions.value

    @property
    def mispredictions(self) -> int:
        return self._mispredictions.value

    @property
    def misprediction_rate(self) -> float:
        if not self._predictions.value:
            return 0.0
        return self._mispredictions.value / self._predictions.value
