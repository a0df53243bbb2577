"""The lint engine: file discovery, the one rule pass, suppressions.

``repro lint`` is one pass over one :class:`~repro.lint.xmod.symbols.Project`:
every file is read, parsed and tokenized once, every enabled rule in
:data:`~repro.lint.rules.RULES` (single-file and cross-module alike) runs
over the project, and suppressions and PARSE001 are applied here, in one
place.

Suppressions are inline comments on the flagged line::

    rng = np.random.default_rng()  # repro-lint: disable=DET001
    x = compute()                  # repro-lint: disable=FP001,API001
    y = legacy()                   # repro-lint: disable=all

Comments are located with :mod:`tokenize`, so the directive is never
confused with string contents.  A finding is suppressed only by a directive
on its own line — blanket file-level opt-outs are deliberately unsupported;
exclude the file in ``[tool.repro-lint]`` instead if it truly is exempt.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, LintResult
from repro.lint.rules import RULES

# importing the cross-module rules also registers them into RULES
from repro.lint.xmod.rules import RuleContext
from repro.lint.xmod.symbols import Project, collect_suppressions

#: rule id reserved for files the engine cannot parse.
PARSE_RULE = "PARSE001"


def lint_project(project: Project, config: LintConfig) -> list[Finding]:
    """Run every enabled rule over ``project``: the one lint pass."""
    findings = [
        Finding(
            path, line, column, PARSE_RULE, "error",
            f"file does not parse: {message}",
        )
        for path, line, column, message in project.parse_failures
    ]
    ctx = RuleContext(project=project, config=config)
    suppressions = {
        info.path: info.suppressions for info in project.modules.values()
    }
    for rule in RULES.values():
        if not config.rule_enabled(rule.id):
            continue
        severity = config.severity_of(rule.id, rule.default_severity)
        for path, line, column, message in rule.check(ctx):
            active = suppressions[path].get(line, ())
            if rule.id in active or "all" in active:
                continue
            findings.append(
                Finding(path, line, column, rule.id, severity, message)
            )
    # one callable flowing into several submission sites yields the same
    # finding once per site — report each distinct location once
    return sorted(dict.fromkeys(findings))


def lint_source(source: str, path: str, config: LintConfig) -> list[Finding]:
    """Lint one already-read source blob (the unit the rule tests target)."""
    project = Project()
    project.add(Path(path), source)
    return lint_project(project, config)


def _excluded(path: Path, exclude: tuple[str, ...]) -> bool:
    """Does any exclusion fragment match a *path-segment run* of ``path``?

    Fragments are matched against whole ``/``-separated segments, never raw
    substrings: ``obs`` excludes ``repro/obs/watch.py`` but not ``jobs.py``,
    and a multi-segment fragment like ``repro/obs`` must appear as a
    contiguous segment run.  (Raw containment used to exclude unintended
    files whose names merely *contained* a fragment.)
    """
    parts = path.as_posix().split("/")
    for fragment in exclude:
        want = [seg for seg in fragment.split("/") if seg]
        if not want:
            continue
        span = len(want)
        if any(
            parts[i : i + span] == want
            for i in range(len(parts) - span + 1)
        ):
            return True
    return False


def iter_python_files(
    paths: list[str], config: LintConfig
) -> list[Path]:
    """Expand the command-line path operands into the files to lint."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root]
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            if _excluded(path, config.exclude):
                continue
            if path not in seen:
                seen.add(path)
                out.append(path)
    return out


def lint_paths(paths: list[str], config: LintConfig) -> LintResult:
    """Lint every Python file under ``paths`` (files or directories)."""
    files = iter_python_files(paths, config)
    findings = lint_project(Project.load(files), config)
    return LintResult(
        findings=tuple(findings),
        files_checked=len(files),
        paths=tuple(path.as_posix() for path in files),
    )

