"""Plain JSON views of dataclasses, for content keys and stored results."""

from __future__ import annotations

import dataclasses
import enum
from typing import Any


def jsonable(value: Any) -> Any:
    """Convert dataclasses, enums, dicts and sequences into JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value
