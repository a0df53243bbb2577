"""SARIF 2.1.0 reporter: lint findings as GitHub code-scanning input.

SARIF (Static Analysis Results Interchange Format) is the exchange format
GitHub's code-scanning UI ingests, turning findings into inline PR
annotations.  The mapping from the engine's model is small and lossless:

* one *run* with one *tool driver* (``repro-lint``), its rule catalogue
  populated from the rule registry;
* one *result* per :class:`~repro.lint.findings.Finding`; severity
  ``error`` maps to SARIF level ``error``, ``advice`` to ``warning``;
* locations use 1-based lines (shared convention) and 1-based columns
  (SARIF's convention; the engine stores 0-based columns, so +1 here).

The output is deterministic — stable key order, findings pre-sorted by the
engine — so the golden-file test can compare bytes.
"""

from __future__ import annotations

import json

from repro.lint.findings import Finding, LintResult
from repro.lint.rules import RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "advice": "warning"}


def _rule_catalogue() -> list[dict[str, object]]:
    """Every registered rule as SARIF metadata, sorted by id."""
    return [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.title},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {
                "level": _LEVELS.get(rule.default_severity, "warning")
            },
        }
        for rule in sorted(RULES.values(), key=lambda rule: rule.id)
    ]


def _result_of(finding: Finding) -> dict[str, object]:
    return {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column + 1,
                    },
                }
            }
        ],
    }


def to_sarif(result: LintResult) -> dict[str, object]:
    """The SARIF document for one lint run, as a plain dict."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": _rule_catalogue(),
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"}
                },
                "results": [
                    _result_of(finding) for finding in result.findings
                ],
            }
        ],
    }


def render_sarif(result: LintResult) -> str:
    """The SARIF document serialized deterministically (golden-testable)."""
    return json.dumps(to_sarif(result), indent=2) + "\n"


__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif", "to_sarif"]
