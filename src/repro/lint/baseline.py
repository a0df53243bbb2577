"""Baseline ratcheting: adopt the analyzer today, pay down debt over time.

A *baseline* is a committed JSON file enumerating the findings the team has
looked at and consciously deferred, each with a human-written ``reason``.
On every run:

* a finding **matched** by a baseline entry is demoted to ``advice`` (it is
  reported, prefixed ``[baselined]``, but never fails the build);
* a finding **not** in the baseline keeps its severity — new debt fails CI
  the moment it is introduced;
* a baseline entry matching nothing is reported as stale advice, so the
  file shrinks as debt is fixed (the ratchet only turns one way).

Both the stale check and ``--update-baseline`` are scoped to the files a
run analysed: an entry for a file outside a narrow run's paths is neither
stale nor dropped.

Entries match on ``(rule, path, message)`` — deliberately *not* on line
numbers, which shift with every unrelated edit.  If a message changes the
finding is new again, which is the conservative direction.  Entry paths
are relative to the baseline file's directory, and a run's paths (as
typed: absolute, or relative to the cwd) are matched after re-expressing
them relative to that directory, so the ratchet holds from any cwd.
"""

from __future__ import annotations

import json
import os
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

from repro.lint.config import find_upwards
from repro.lint.findings import Finding
from repro.errors import ConfigError

BASELINE_SCHEMA_VERSION = 1

#: filename auto-discovered next to pyproject.toml when --baseline is absent.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One consciously deferred finding, with its justification."""

    rule: str
    path: str
    message: str
    reason: str


@dataclass(frozen=True)
class BaselineOutcome:
    """Result of applying a baseline to a run's findings."""

    #: findings not covered by the baseline — these keep their severity.
    new: tuple[Finding, ...]
    #: baseline-covered findings, demoted to advice.
    baselined: tuple[Finding, ...]
    #: entries that matched nothing this run (stale — remove them).
    stale: tuple[BaselineEntry, ...]


def load_baseline(path: Path) -> list[BaselineEntry]:
    """Parse a baseline file; every entry must carry a non-empty reason."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise ConfigError(f"baseline {path} must be an object with 'entries'")
    entries: list[BaselineEntry] = []
    for i, raw in enumerate(data["entries"]):
        if not isinstance(raw, dict):
            raise ConfigError(f"baseline {path}: entry {i} is not an object")
        try:
            entry = BaselineEntry(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                message=str(raw["message"]),
                reason=str(raw["reason"]),
            )
        except KeyError as exc:
            raise ConfigError(
                f"baseline {path}: entry {i} is missing key {exc.args[0]!r}"
            ) from exc
        if not entry.reason.strip():
            raise ConfigError(
                f"baseline {path}: entry {i} ({entry.rule} at {entry.path}) "
                "has an empty 'reason' — every deferred finding needs a "
                "written justification"
            )
        entries.append(entry)
    return entries


def _under(root: str, path: str) -> str:
    """``path`` (absolute, or relative to the cwd) relative to ``root``."""
    return Path(os.path.relpath(os.path.abspath(path), root)).as_posix()


def _root(root: Path | None) -> str:
    return os.path.abspath(root if root is not None else os.curdir)


def _entry_key(base: str, entry: BaselineEntry) -> tuple[str, str, str]:
    """``(rule, path, message)`` with the path normalised under ``base``."""
    path = _under(base, os.path.join(base, entry.path))
    return (entry.rule, path, entry.message)


def apply_baseline(
    findings: list[Finding],
    entries: list[BaselineEntry],
    analyzed: Collection[str],
    root: Path | None = None,
) -> BaselineOutcome:
    """Split findings into new vs baselined and spot stale entries (those
    for an ``analyzed`` path that matched nothing).  ``root`` is the
    baseline file's directory (default: the cwd)."""
    base = _root(root)
    by_key = {_entry_key(base, entry): entry for entry in entries}
    matched: set[tuple[str, str, str]] = set()
    new: list[Finding] = []
    baselined: list[Finding] = []
    for finding in findings:
        key = (finding.rule, _under(base, finding.path), finding.message)
        entry = by_key.get(key)
        if entry is None:
            new.append(finding)
            continue
        matched.add(key)
        baselined.append(
            Finding(
                path=finding.path,
                line=finding.line,
                column=finding.column,
                rule=finding.rule,
                severity="advice",
                message=f"[baselined: {entry.reason}] {finding.message}",
            )
        )
    scope = {_under(base, path) for path in analyzed}
    stale = tuple(
        entry
        for key, entry in by_key.items()
        if key[1] in scope and key not in matched
    )
    return BaselineOutcome(
        new=tuple(new), baselined=tuple(baselined), stale=stale
    )


def write_baseline(
    findings: list[Finding],
    path: Path,
    previous: list[BaselineEntry] | None = None,
    analyzed: Collection[str] = (),
    root: Path | None = None,
) -> int:
    """Write a baseline covering ``findings``; reasons carry over from
    ``previous`` where the key matches, otherwise a fill-me-in marker is
    emitted (CI loading rejects empty reasons, not markers — review them).
    Entries of ``previous`` for files outside ``analyzed`` are kept as
    they are.  Paths are written relative to ``root``, the baseline
    file's directory (default: the cwd).  Returns the number of entries
    written."""
    base = _root(root)
    scope = {_under(base, p) for p in analyzed}
    carried = {
        _entry_key(base, entry): entry.reason for entry in previous or []
    }
    reasons = {key: why for key, why in carried.items() if key[1] not in scope}
    for finding in sorted(findings):
        key = (finding.rule, _under(base, finding.path), finding.message)
        reasons.setdefault(
            key, carried.get(key, "TODO: justify or fix before merging")
        )
    entries = [
        {"rule": rule, "path": where, "message": message, "reason": reason}
        for (rule, where, message), reason in sorted(
            reasons.items(), key=lambda item: item[0][1]
        )
    ]
    payload = {
        "version": BASELINE_SCHEMA_VERSION,
        "entries": entries,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return len(entries)


def find_baseline(start: Path | None = None) -> Path | None:
    """Nearest committed ``lint-baseline.json`` at or above ``start``."""
    return find_upwards(DEFAULT_BASELINE_NAME, start)


__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BaselineEntry",
    "BaselineOutcome",
    "DEFAULT_BASELINE_NAME",
    "apply_baseline",
    "find_baseline",
    "load_baseline",
    "write_baseline",
]
