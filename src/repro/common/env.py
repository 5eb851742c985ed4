"""On/off settings read from ``REPRO_*`` environment variables."""

from __future__ import annotations

import os
from typing import Optional

#: Accepted spellings, compared case-insensitively.
ON_VALUES = ("1", "true", "yes", "on")
OFF_VALUES = ("0", "false", "no", "off", "none", "disabled")


def env_flag(name: str, default: Optional[bool] = None) -> Optional[bool]:
    """Read an on/off environment variable; ``default`` when unset or empty.

    Any other spelling is a configuration mistake: fail with a message
    naming the variable, as :func:`repro.sim.runner.env_int` does, rather
    than guess what was meant.
    """
    raw = os.environ.get(name, "").strip()
    spelling = raw.lower()
    if not spelling:
        return default
    if spelling in ON_VALUES:
        return True
    if spelling in OFF_VALUES:
        return False
    raise ValueError(
        f"environment variable {name} must be one of "
        f"{'/'.join(ON_VALUES)} (on) or {'/'.join(OFF_VALUES)} (off), "
        f"got {raw!r}")
