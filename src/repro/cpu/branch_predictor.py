"""The tournament branch predictor of Table 1.

A local predictor (2048-entry pattern history), a global predictor
(8192-entry gshare) and a 2048-entry chooser, each a list of 2-bit
saturating counters held as plain ints, plus a 4096-entry branch target
buffer.  Table 1's 16-entry return address stack is not modelled:
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


#: A counter starts weakly taken, predicts taken at 2 or more and
#: saturates at 0 and 3: ``_TRAIN[taken][value]`` is its next value.
WEAKLY_TAKEN = 2
_TRAIN = ((0, 0, 1, 2), (1, 2, 3, 3))


class TournamentPredictor:
    """Local + gshare global predictors arbitrated by a chooser."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None,
                 stats: Optional[StatGroup] = None) -> None:
        config = self.config = config or BranchPredictorConfig()
        self._local_history: List[int] = [0] * config.local_entries
        self._local_counters = [WEAKLY_TAKEN] * config.local_entries
        self._global_counters = [WEAKLY_TAKEN] * config.global_entries
        self._chooser = [WEAKLY_TAKEN] * config.chooser_entries
        self._global_history = 0
        # The branch target buffer: BTB index -> last seen target.
        self._btb: Dict[int, int] = {}
        stats = stats or StatGroup("branch_predictor")
        self.stats = stats
        # The core counts ``predictions`` (the branches whose direction it
        # took from the predictor); ``update`` counts ``mispredictions``.
        stats.counter("predictions")
        self._mispredictions = stats.counter("mispredictions")
        # ``btb_misses`` stays 0: no target lookup happens ahead of
        # ``update``.  It is registered so that the statistics tree (and the
        # golden stats) keep their shape.
        stats.counter("btb_misses")

    # -- update ---------------------------------------------------------------------
    def update(self, pc: int, taken: bool,
               target: Optional[int] = None) -> bool:
        """Update all structures; returns True if the branch was mispredicted.

        The verdict compares the direction the predictor would have given
        with ``taken`` and, for a taken branch with a ``target``, the BTB's
        entry with the target, before training either.
        """
        config = self.config
        word = pc >> 2
        local_idx = word % config.local_entries
        pattern = self._local_history[local_idx] % config.local_entries
        global_idx = (word ^ self._global_history) % config.global_entries
        chooser_idx = word % config.chooser_entries
        local_counters = self._local_counters
        global_counters = self._global_counters
        chooser = self._chooser
        local_prediction = local_counters[pattern] >= WEAKLY_TAKEN
        global_prediction = global_counters[global_idx] >= WEAKLY_TAKEN
        prediction = (global_prediction
                      if chooser[chooser_idx] >= WEAKLY_TAKEN
                      else local_prediction)

        mispredicted = prediction != taken
        if taken and target is not None:
            btb = self._btb
            btb_idx = word % config.btb_entries
            if btb.get(btb_idx) != target:
                mispredicted = True
            btb[btb_idx] = target
        if mispredicted:
            self._mispredictions.value += 1

        # Chooser trains toward whichever component was right.
        if local_prediction != global_prediction:
            chooser[chooser_idx] = _TRAIN[global_prediction == taken][
                chooser[chooser_idx]]
        train = _TRAIN[taken]
        local_counters[pattern] = train[local_counters[pattern]]
        global_counters[global_idx] = train[global_counters[global_idx]]
        self._local_history[local_idx] = (
            (self._local_history[local_idx] << 1) | int(taken)) & 0x3FF
        self._global_history = (
            (self._global_history << 1) | int(taken)) & 0x1FFF
        return mispredicted
