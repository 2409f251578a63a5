"""Engine configuration: size caps and the work budget.

A config travels explicitly through the CLI; library callers normally pass
keyword overrides to the few operations that take them. The GRADALG_CONFIG
environment variable may point at a JSON file with the same field names.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .errors import ParseError

DEFAULT_ORDER_CAP = 64
DEFAULT_DEGREE_CAP = 4
DEFAULT_WORK_BUDGET = 200_000


@dataclass(frozen=True)
class EngineConfig:
    order_cap: int = DEFAULT_ORDER_CAP
    degree_cap: int = DEFAULT_DEGREE_CAP
    work_budget: int = DEFAULT_WORK_BUDGET


def load_config(path: str | None = None) -> EngineConfig:
    """Build a config from a JSON file, falling back to GRADALG_CONFIG, then defaults."""
    if path is None:
        path = os.environ.get("GRADALG_CONFIG")
    if not path:
        return EngineConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config file {path}: expected a JSON object")
    known = {"order_cap", "degree_cap", "work_budget"}
    bad = sorted(set(raw) - known)
    if bad:
        raise ParseError(f"config file {path}: unknown keys {bad}")
    for key, val in raw.items():
        if val is not None and (not isinstance(val, int) or isinstance(val, bool)):
            raise ParseError(f"config file {path}: {key} must be an integer")
    return EngineConfig(**raw)
