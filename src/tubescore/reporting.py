"""Deterministic CSV/JSON rendering for experiment outputs.

Every rendered document embeds the resolved run configuration and the
library version.  No timestamps or environment data are included, so the
same configuration and seed produce byte-identical files.  Both renderers
refuse a NaN or infinity, and any leaf that is not a builtin scalar, and
name its path.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from . import __version__
from .errors import ConfigError, NonFiniteResult

LIBRARY = "tubescore"


def require_finite(value, path: str) -> None:
    """Refuse a NaN or infinity, and any leaf that is not exactly a bool,
    int, float, str or None (a numpy scalar renders differently)."""
    if isinstance(value, dict):
        for key, item in value.items():
            require_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            require_finite(item, f"{path}.{i}")
    elif type(value) not in (bool, int, float, str, type(None)):
        raise TypeError(f"{path} is a {type(value).__name__}, not a builtin "
                        "scalar")
    elif type(value) is float and not math.isfinite(value):
        raise NonFiniteResult(f"{path} is {value}")


def _cell(value, path: str) -> str:
    require_finite(value, path)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if "," in text or "\n" in text or "#" in text:
        raise ConfigError(f"value {text!r} cannot be written as a CSV cell")
    return text


def _compact_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def header_lines(config: dict, extras: dict | None = None) -> list[str]:
    lines = [f"# {LIBRARY} {__version__}",
             f"# config: {_compact_json(config)}"]
    for key in sorted(extras or {}):
        lines.append(f"# {key}: {_compact_json(extras[key])}")
    return lines


def format_csv(columns, rows, config: dict,
               extras: dict | None = None) -> str:
    require_finite(config, "config")
    require_finite(extras, "extras")
    out = header_lines(config, extras)
    out.append(",".join(str(c) for c in columns))
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ConfigError(
                f"row has {len(row)} cells, expected {len(columns)}")
        out.append(",".join(_cell(v, f"rows.{i}.{c}")
                            for c, v in zip(columns, row)))
    return "\n".join(out) + "\n"


def format_json(payload, config: dict) -> str:
    require_finite(payload, "results")
    require_finite(config, "config")
    doc = {
        "library": {"name": LIBRARY, "version": __version__},
        "config": config,
        "results": payload,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def flatten_scalars(payload, prefix: str = "") -> list[tuple[str, object]]:
    """Dotted-key key/value rows for nested dictionaries of scalars.

    Lists of scalars become indexed keys; lists of dictionaries (tables)
    are skipped — they belong in a proper columnar rendering.
    """
    rows: list[tuple[str, object]] = []
    if isinstance(payload, dict):
        for key in payload:
            rows.extend(flatten_scalars(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        if any(isinstance(v, dict) for v in payload):
            return []
        for i, v in enumerate(payload):
            rows.extend(flatten_scalars(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def write_text(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        path = Path(out)
        if path.parent != Path("") and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def error_record(exc: BaseException, exit_code: int) -> str:
    return _compact_json({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code,
    })
