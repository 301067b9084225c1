"""Plain-text key=value config files.

Format: one ``key = value`` per line; blank lines and lines whose first
non-space character is ``#`` are ignored. Keys may repeat, and every
occurrence is kept in file order, which is how shape lists are written;
``dict(items)`` gives the last assignment of each key. Values are raw
strings; interpretation belongs to the consumer.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError


def parse_config_items(text: str, source: str = "<config>"
                       ) -> list[tuple[str, str]]:
    """Parse config text into (key, value) pairs preserving file order,
    which carries meaning for shape lists (later shapes overwrite)."""
    items: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(
                f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise InputError(f"{source}:{lineno}: empty key in {raw!r}")
        items.append((key, value))
    return items


def read_config_items(path: str | Path) -> list[tuple[str, str]]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {p}: {exc}") from exc
    return parse_config_items(text, source=str(p))
