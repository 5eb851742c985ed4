"""Declarative machine descriptions: config dataclasses ↔ dict/JSON.

A :class:`~repro.common.params.SystemConfig` (and every nested config
dataclass) round-trips losslessly through a plain, versioned dictionary:

* :func:`config_to_dict` emits **every** field, so the output is a
  complete, self-describing machine description — what
  ``SystemConfig.to_dict()`` returns and what the checked-in example
  machine files under ``examples/machines/`` contain.
* :func:`config_from_dict` accepts **partial** dictionaries: missing keys
  take the dataclass defaults, which is how the named machine presets in
  :mod:`repro.workloads.mixes` are written as compact data.  Unknown keys
  are configuration mistakes and raise :class:`MachineFormatError` naming
  the offending key and the keys the class knows; so does a
  ``schema_version`` this code does not understand.  The one retired
  key, which older versions wrote but which no longer configures
  anything, is accepted and ignored so saved files keep loading.

Protection schemes serialise as their registry *names* (plain strings), so
a machine file can reference any scheme registered through
:mod:`repro.schemes` — including ones the repository has never heard of.

The schema is versioned independently of the result-store layout:
``schema_version`` is checked on load, and bumping it is how future,
incompatible field changes announce themselves to old files.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, TypeVar, Union, get_args, get_origin, get_type_hints

from repro.common.params import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    FilterCacheConfig,
    MemoryConfig,
    PipelineConfig,
    ProtectionConfig,
    SystemConfig,
)

#: Bump on incompatible field changes; :func:`config_from_dict` rejects
#: files written under a different major version with a clear error.
MACHINE_SCHEMA_VERSION = 1

#: The key carrying the version in serialised descriptions.
_VERSION_KEY = "schema_version"

_T = TypeVar("_T")

#: Classes that may appear as the top level of a description (and therefore
#: carry a ``schema_version`` key when serialised).
_PUBLIC_CLASSES = (SystemConfig, CoreConfig, ProtectionConfig)

#: A :class:`SystemConfig` key older versions wrote, ignored on load: it
#: selected an execution engine that no longer exists, and results never
#: depended on it, so files that carry it describe the same machine.
_RETIRED_SYSTEM_KEY = "use_vectorized"


class MachineFormatError(ValueError):
    """A machine description that cannot be interpreted."""


def _resolved_hints(cls: type) -> Dict[str, Any]:
    """Field name -> resolved type hint (params uses string annotations)."""
    return get_type_hints(cls)


def config_to_dict(config: Any) -> Dict[str, Any]:
    """A lossless, JSON-ready description of any config dataclass."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise TypeError(f"expected a config dataclass instance, "
                        f"got {config!r}")
    payload = _encode(config)
    if isinstance(config, _PUBLIC_CLASSES):
        payload = {_VERSION_KEY: MACHINE_SCHEMA_VERSION, **payload}
    return payload


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def config_from_dict(payload: Dict[str, Any], cls: Type[_T]) -> _T:
    """Build a config dataclass from a (possibly partial) description.

    Missing keys take the dataclass defaults; unknown keys and
    unsupported ``schema_version`` values raise
    :class:`MachineFormatError`.
    """
    if not isinstance(payload, dict):
        raise MachineFormatError(
            f"{cls.__name__} description must be a mapping, "
            f"got {type(payload).__name__}")
    payload = dict(payload)
    version = payload.pop(_VERSION_KEY, MACHINE_SCHEMA_VERSION)
    if version != MACHINE_SCHEMA_VERSION:
        raise MachineFormatError(
            f"unsupported machine {_VERSION_KEY} {version!r} "
            f"(this version reads {MACHINE_SCHEMA_VERSION})")
    return _decode_dataclass(cls, payload, context=cls.__name__)


def _decode_dataclass(cls: Type[_T], payload: Any, context: str) -> _T:
    if not isinstance(payload, dict):
        raise MachineFormatError(
            f"{context}: expected a mapping for {cls.__name__}, "
            f"got {type(payload).__name__}")
    if issubclass(cls, _PUBLIC_CLASSES) and _VERSION_KEY in payload:
        # A nested description may itself be the output of a public
        # class's to_dict() (compose a machine from exported parts);
        # accept — and validate — its version stamp.
        payload = dict(payload)
        version = payload.pop(_VERSION_KEY)
        if version != MACHINE_SCHEMA_VERSION:
            raise MachineFormatError(
                f"{context}: unsupported {_VERSION_KEY} {version!r} "
                f"(this version reads {MACHINE_SCHEMA_VERSION})")
    if cls is SystemConfig and _RETIRED_SYSTEM_KEY in payload:
        payload = dict(payload)
        del payload[_RETIRED_SYSTEM_KEY]
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise MachineFormatError(
            f"{context}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"for {cls.__name__} (known keys: {', '.join(sorted(known))})")
    hints = _resolved_hints(cls)
    kwargs = {name: _decode(payload[name], hints[name],
                            context=f"{context}.{name}")
              for name in payload}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise MachineFormatError(f"{context}: {error}") from None


def _decode(value: Any, hint: Any, context: str) -> Any:
    origin = get_origin(hint)
    if origin is Union:
        args = get_args(hint)
        if value is None:
            if type(None) in args:
                return None
            raise MachineFormatError(f"{context}: null is not allowed")
        members = [arg for arg in args if arg is not type(None)]
        if len(members) == 1:
            return _decode(value, members[0], context)
        raise MachineFormatError(  # pragma: no cover - no such field today
            f"{context}: ambiguous union type {hint!r}")
    if origin is tuple:
        item_hint = get_args(hint)[0]
        if not isinstance(value, (list, tuple)):
            raise MachineFormatError(
                f"{context}: expected a list, got {type(value).__name__}")
        return tuple(_decode(item, item_hint, context=f"{context}[{index}]")
                     for index, item in enumerate(value))
    if dataclasses.is_dataclass(hint):
        return _decode_dataclass(hint, value, context)
    return value


# -- whole-machine convenience wrappers ---------------------------------------

def machine_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Serialise a machine (alias of ``config.to_dict()``)."""
    return config_to_dict(config)


def machine_from_dict(payload: Dict[str, Any]) -> SystemConfig:
    """Build a machine from a description dict."""
    return config_from_dict(payload, SystemConfig)


def save_machine(config: SystemConfig, path: Union[str, os.PathLike]) -> Path:
    """Write a machine description as pretty-printed JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(machine_to_dict(config), indent=2,
                                 sort_keys=False) + "\n",
                      encoding="utf-8")
    return target


def load_machine(path: Union[str, os.PathLike]) -> SystemConfig:
    """Read a machine description from a JSON file.

    Errors carry the file name: a missing file, malformed JSON, and schema
    violations all raise :class:`MachineFormatError` (a ``ValueError``),
    which the CLI turns into a one-line message.
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as error:
        raise MachineFormatError(
            f"cannot read machine file {source}: {error}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise MachineFormatError(
            f"machine file {source} is not valid JSON: {error}") from None
    try:
        return machine_from_dict(payload)
    except MachineFormatError as error:
        raise MachineFormatError(f"machine file {source}: {error}") from None


__all__ = [
    "MACHINE_SCHEMA_VERSION",
    "MachineFormatError",
    "config_from_dict",
    "config_to_dict",
    "load_machine",
    "machine_from_dict",
    "machine_to_dict",
    "save_machine",
]
