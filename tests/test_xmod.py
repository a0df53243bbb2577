"""Tests of the whole-program half of ``repro lint``: symbols, call graph,
the cross-module rules, SARIF and the baseline ratchet.

Synthetic fixture trees are written under ``tmp_path`` mimicking the
package layout the rules anchor on (``repro/cli.py`` entry points,
``repro/errors.py`` taxonomy, ``repro/telemetry/events.py`` schemas), so
every cross-module rule can be exercised positive and suppressed-negative
without touching the real tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.config import LintConfig
from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.findings import Finding, LintResult
from repro.lint.sarif import render_sarif, to_sarif
from repro.lint.xmod.callgraph import build_call_graph
from repro.lint.xmod.symbols import Project, module_name_for

GOLDEN = Path(__file__).parent / "data" / "sarif_golden.json"

#: the cross-module rules only: the DET003 fixtures' raw generators would
#: also trip the single-file DET001 (tested in test_lint.py)
CROSS_MODULE = LintConfig(
    select=("PAR001", "PAR002", "DET003", "TEL001", "ERR001")
)


def write_tree(root: Path, files: dict[str, str]) -> list[Path]:
    """Materialise a fixture tree; returns the python files in it."""
    out = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        if path.suffix == ".py":
            out.append(path)
    return sorted(out)


def project_of(root: Path, files: dict[str, str]) -> Project:
    return Project.load(write_tree(root, files))


def rules_of(result: LintResult) -> list[str]:
    return [f.rule for f in result.findings]


def analyze(root: Path, files: dict[str, str]) -> LintResult:
    write_tree(root, files)
    return lint_paths([str(root)], CROSS_MODULE)


# ---------------------------------------------------------------------------
# symbol resolution


class TestSymbols:
    def test_module_name_walks_packages(self, tmp_path):
        files = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "x = 1\n",
        })
        assert module_name_for(files[-1]) == "pkg.sub.mod"
        assert module_name_for(files[0]) == "pkg"

    def test_resolve_through_import_alias_chain(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": "def target():\n    return 1\n",
            "pkg/mid.py": "from pkg.base import target as renamed\n",
            "pkg/top.py": "from pkg.mid import renamed as again\n",
        })
        resolved = project.resolve("pkg.top", "again")
        assert resolved is not None
        assert resolved.qualname == "pkg.base.target"
        assert resolved.kind == "function"

    def test_relative_import_anchors_on_package(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/base.py": "def target():\n    return 1\n",
            "pkg/user.py": "from .base import target\n",
        })
        resolved = project.resolve("pkg.user", "target")
        assert resolved is not None and resolved.qualname == "pkg.base.target"

    def test_external_names_are_tagged_external(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": "import numpy as np\n",
        })
        import ast as ast_mod
        expr = ast_mod.parse("np.random.default_rng", mode="eval").body
        resolved = project.resolve_expr("pkg.mod", expr)
        assert resolved is not None
        assert resolved.kind == "external"
        assert resolved.qualname == "numpy.random.default_rng"

    def test_import_cycle_does_not_recurse_forever(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "from pkg.b import name\n",
            "pkg/b.py": "from pkg.a import name\n",
        })
        assert project.resolve("pkg.a", "name") is None

    def test_is_subclass_of_follows_bases_across_modules(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/errors.py": (
                "class Base(Exception):\n    pass\n\n"
                "class Mid(Base):\n    pass\n"
            ),
            "pkg/more.py": (
                "from pkg.errors import Mid\n\n"
                "class Leaf(Mid):\n    pass\n"
            ),
        })
        leaf = project.modules["pkg.more"].defs["Leaf"]
        assert project.is_subclass_of("pkg.more", leaf, {"pkg.errors.Base"})
        assert not project.is_subclass_of("pkg.more", leaf, {"pkg.other.X"})


# ---------------------------------------------------------------------------
# call graph


class TestCallGraph:
    def test_direct_and_imported_call_edges(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def helper():\n    return 1\n",
            "pkg/b.py": (
                "from pkg.a import helper\n\n"
                "def caller():\n    return helper()\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.a.helper" in graph.edges["pkg.b.caller"]

    def test_class_call_reaches_ctor_methods(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/cls.py": (
                "class Thing:\n"
                "    def __init__(self):\n        self.x = 1\n"
                "    def __post_init__(self):\n        pass\n"
            ),
            "pkg/use.py": (
                "from pkg.cls import Thing\n\n"
                "def make():\n    return Thing()\n"
            ),
        })
        graph = build_call_graph(project)
        edges = graph.edges["pkg.use.make"]
        assert "pkg.cls.Thing.__init__" in edges
        assert "pkg.cls.Thing.__post_init__" in edges

    def test_nested_def_reachable_from_parent(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": (
                "def outer():\n"
                "    def inner():\n        return 1\n"
                "    return inner\n"
            ),
        })
        graph = build_call_graph(project)
        inner = "pkg.mod.outer.<locals>.inner"
        assert inner in graph.units
        assert inner in graph.reachable({"pkg.mod.outer"})

    def test_callable_passed_as_argument_creates_edge(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def callback():\n    return 1\n",
            "pkg/b.py": (
                "from pkg.a import callback\n\n"
                "def submitter(ex):\n    ex.submit(callback)\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.a.callback" in graph.edges["pkg.b.submitter"]

    def test_method_defined_in_try_block_is_collected(self, tmp_path):
        project = project_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": (
                "try:\n"
                "    def maybe():\n        return 1\n"
                "except ImportError:\n"
                "    def maybe():\n        return 2\n"
            ),
        })
        graph = build_call_graph(project)
        assert "pkg.mod.maybe" in graph.units


# ---------------------------------------------------------------------------
# the five rules: one positive + one suppressed negative each


class TestPar001:
    def test_lambda_submission_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    return ex.map_supervised(lambda x: x, items)\n"
            ),
        })
        assert rules_of(result) == ["PAR001"]

    def test_nested_def_submission_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    def inner(x):\n"
                "        return x\n"
                "    return ex.map_supervised(inner, items)\n"
            ),
        })
        assert rules_of(result) == ["PAR001"]

    def test_module_level_function_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def work(x):\n"
                "    return x\n\n"
                "def run(ex, items):\n"
                "    return ex.map_supervised(work, items)\n"
            ),
        })
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/run.py": (
                "def run(ex, items):\n"
                "    return ex.map_supervised(lambda x: x, items)"
                "  # repro-lint: disable=PAR001\n"
            ),
        })
        assert rules_of(result) == []


class TestPar002:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/work.py": (
            "STATE = []\n\n"
            "def helper(item):\n"
            "    STATE.append(item)\n\n"
            "def worker(item):\n"
            "    helper(item)\n"
            "    return item\n\n"
            "def run(ex, items):\n"
            "    return ex.map_supervised(worker, items)\n"
        ),
    }

    def test_worker_reachable_global_write_flagged(self, tmp_path):
        result = analyze(tmp_path, self.FILES)
        assert rules_of(result) == ["PAR002"]
        assert "helper" in result.findings[0].message

    def test_write_outside_worker_path_is_clean(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/work.py": (
                "STATE = []\n\n"
                "def serial_only(item):\n"
                "    STATE.append(item)\n\n"
                "def worker(item):\n"
                "    return item\n\n"
                "def run(ex, items):\n"
                "    return ex.map_supervised(worker, items)\n"
            ),
        })
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        files = dict(self.FILES)
        files["pkg/work.py"] = files["pkg/work.py"].replace(
            "    STATE.append(item)\n",
            "    STATE.append(item)  # repro-lint: disable=PAR002\n",
        )
        result = analyze(tmp_path, files)
        assert rules_of(result) == []


class TestDet003:
    def test_raw_generator_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim.py": (
                "import numpy as np\n\n"
                "def draw():\n"
                "    return np.random.default_rng().random()\n"
            ),
        })
        assert rules_of(result) == ["DET003"]

    def test_rng_stream_chokepoint_is_allowed(self, tmp_path):
        # the sanctioned construction site is carved out by det003-allow
        result = analyze(tmp_path, {
            "repro/__init__.py": "",
            "repro/util/__init__.py": "",
            "repro/util/rng.py": (
                "import numpy as np\n\n"
                "def rng_stream(seed, *keys):\n"
                "    return np.random.default_rng(seed)\n"
            ),
        })
        assert rules_of(result) == []

    def test_generator_flowing_into_fanout_flagged(self, tmp_path):
        result = analyze(tmp_path, {
            "repro/__init__.py": "",
            "repro/util/__init__.py": "",
            "repro/util/rng.py": (
                "import numpy as np\n\n"
                "def rng_stream(seed, *keys):\n"
                "    return np.random.default_rng(seed)\n"
            ),
            "repro/run.py": (
                "from repro.util.rng import rng_stream\n\n"
                "def sweep(ex, items, seed):\n"
                "    rng = rng_stream(seed)\n"
                "    return ex.map_supervised(work, items, rng)\n\n"
                "def work(item):\n"
                "    return item\n"
            ),
        })
        assert rules_of(result) == ["DET003"]
        assert "scheduling order" in result.findings[0].message

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sim.py": (
                "import numpy as np\n\n"
                "def draw():\n"
                "    return np.random.default_rng().random()"
                "  # repro-lint: disable=DET003\n"
            ),
        })
        assert rules_of(result) == []


TELEMETRY_FIXTURE = {
    "repro/__init__.py": "",
    "repro/telemetry/__init__.py": "",
    "repro/telemetry/events.py": (
        "class FieldSpec:\n"
        "    def __init__(self, types, required=True, deterministic=True):\n"
        "        self.types = types\n"
        "        self.required = required\n\n"
        "_NUM = FieldSpec((int, float))\n"
        "_OPT_STR = FieldSpec((str,), required=False)\n\n"
        "COMMON_FIELDS = {\n"
        "    'type': FieldSpec((str,)),\n"
        "    'seq': _NUM,\n"
        "}\n\n"
        "EVENT_SCHEMAS = {\n"
        "    'tick': {\n"
        "        'value': _NUM,\n"
        "        'note': _OPT_STR,\n"
        "    },\n"
        "}\n"
    ),
}


class TestTel001:
    def emitter(self, body: str) -> dict[str, str]:
        files = dict(TELEMETRY_FIXTURE)
        files["repro/emit.py"] = body
        return files

    def test_unknown_field_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, legacy=2)\n"
        ))
        assert rules_of(result) == ["TEL001"]
        assert "legacy" in result.findings[0].message

    def test_missing_required_field_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', note='x')\n"
        ))
        assert rules_of(result) == ["TEL001"]
        assert "'value'" in result.findings[0].message

    def test_unknown_event_type_flagged(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('boom', value=1)\n"
        ))
        assert rules_of(result) == ["TEL001"]

    def test_conforming_emit_is_clean(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, note='x', seq=3)\n"
        ))
        assert rules_of(result) == []

    def test_splat_skips_completeness_check(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer, record):\n"
            "    tracer.emit('tick', **record)\n"
        ))
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, self.emitter(
            "def go(tracer):\n"
            "    tracer.emit('tick', value=1, legacy=2)"
            "  # repro-lint: disable=TEL001\n"
        ))
        assert rules_of(result) == []


ERR_FIXTURE = {
    "repro/__init__.py": "",
    "repro/errors.py": (
        "class ReproError(Exception):\n    pass\n\n"
        "class ConfigError(ReproError, ValueError):\n    pass\n"
    ),
}


class TestErr001:
    def tree(self, helper: str) -> dict[str, str]:
        files = dict(ERR_FIXTURE)
        files["repro/domain.py"] = helper
        files["repro/cli.py"] = (
            "from repro.domain import helper\n\n"
            "def cmd_run(args):\n"
            "    return helper(args)\n"
        )
        return files

    def test_builtin_raise_on_cli_path_flagged(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "def helper(x):\n"
            "    raise ValueError('bad')\n"
        ))
        assert rules_of(result) == ["ERR001"]

    def test_taxonomy_raise_is_clean(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "from repro.errors import ConfigError\n\n"
            "def helper(x):\n"
            "    raise ConfigError('bad')\n"
        ))
        assert rules_of(result) == []

    def test_unreachable_raise_is_clean(self, tmp_path):
        files = dict(ERR_FIXTURE)
        files["repro/domain.py"] = (
            "def not_called_from_cli(x):\n"
            "    raise ValueError('bad')\n"
        )
        files["repro/cli.py"] = "def cmd_run(args):\n    return 0\n"
        result = analyze(tmp_path, files)
        assert rules_of(result) == []

    def test_suppressed_negative(self, tmp_path):
        result = analyze(tmp_path, self.tree(
            "def helper(x):\n"
            "    raise ValueError('bad')  # repro-lint: disable=ERR001\n"
        ))
        assert rules_of(result) == []


# ---------------------------------------------------------------------------
# SARIF reporter


class TestSarif:
    RESULT = LintResult(
        findings=(
            Finding(
                path="src/repro/fabric/sweep.py",
                line=170,
                column=8,
                rule="TEL001",
                severity="error",
                message="emit of 'mc_point' passes field 'legacy' that the "
                        "schema does not declare",
            ),
            Finding(
                path="src/repro/util/bits.py",
                line=23,
                column=8,
                rule="ERR001",
                severity="advice",
                message="[baselined: conventional contract] raise of "
                        "builtin ValueError",
            ),
        ),
        files_checked=2,
    )

    def test_levels_and_locations(self):
        doc = to_sarif(self.RESULT)
        run = doc["runs"][0]
        results = run["results"]
        assert [r["level"] for r in results] == ["error", "warning"]
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 170
        assert region["startColumn"] == 9  # SARIF columns are 1-based

    def test_rule_catalogue_covers_xmod_rules(self):
        doc = to_sarif(self.RESULT)
        ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert {"PAR001", "PAR002", "DET003", "TEL001", "ERR001"} <= ids
        assert "DET001" in ids  # per-file rules are in the catalogue too

    def test_golden_file(self):
        assert render_sarif(self.RESULT) == GOLDEN.read_text(
            encoding="utf-8"
        ), (
            "SARIF output drifted from the golden file; if the change is "
            "intentional, regenerate tests/data/sarif_golden.json"
        )


# ---------------------------------------------------------------------------
# baseline ratcheting


class TestBaseline:
    OLD = Finding(
        path="src/a.py", line=3, column=0, rule="ERR001",
        severity="error", message="raise of builtin ValueError",
    )
    NEW = Finding(
        path="src/b.py", line=9, column=4, rule="PAR002",
        severity="error", message="worker-reachable global write",
    )

    def baseline(self, tmp_path: Path) -> Path:
        path = tmp_path / "lint-baseline.json"
        write_baseline([self.OLD], path)
        data = json.loads(path.read_text())
        for entry in data["entries"]:
            entry["reason"] = "adopted with debt; tracked in the ratchet"
        path.write_text(json.dumps(data))
        return path

    def test_old_finding_is_demoted_new_finding_fails(self, tmp_path):
        entries = load_baseline(self.baseline(tmp_path))
        analyzed = ["src/a.py", "src/b.py"]
        outcome = apply_baseline([self.OLD, self.NEW], entries, analyzed)
        assert [f.rule for f in outcome.new] == ["PAR002"]
        assert [f.severity for f in outcome.baselined] == ["advice"]
        assert outcome.baselined[0].message.startswith("[baselined:")
        assert not outcome.stale
        # the ratchet contract: only the NEW finding can fail a build
        gate = LintResult(
            findings=tuple([*outcome.new, *outcome.baselined]),
            files_checked=1,
        )
        assert gate.exit_code == 1
        clean = apply_baseline([self.OLD], entries, analyzed)
        assert LintResult(
            findings=tuple([*clean.new, *clean.baselined]), files_checked=1
        ).exit_code == 0

    def test_stale_entries_are_reported(self, tmp_path):
        entries = load_baseline(self.baseline(tmp_path))
        outcome = apply_baseline([], entries, ["src/a.py"])
        assert [e.rule for e in outcome.stale] == ["ERR001"]

    def test_entries_outside_the_run_are_not_stale(self, tmp_path):
        entries = load_baseline(self.baseline(tmp_path))
        outcome = apply_baseline([self.NEW], entries, ["src/b.py"])
        assert outcome.stale == ()
        assert [f.rule for f in outcome.new] == ["PAR002"]

    def test_empty_reason_is_rejected(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        write_baseline([self.OLD], path)
        data = json.loads(path.read_text())
        data["entries"][0]["reason"] = "  "
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="reason"):
            load_baseline(path)

    def test_update_carries_reasons_over(self, tmp_path):
        path = self.baseline(tmp_path)
        previous = load_baseline(path)
        write_baseline([self.OLD, self.NEW], path, previous)
        reasons = {
            e.rule: e.reason for e in load_baseline(path)
        }
        assert reasons["ERR001"] == "adopted with debt; tracked in the ratchet"
        assert reasons["PAR002"].startswith("TODO")

    def test_update_keeps_entries_outside_the_run(self, tmp_path):
        path = self.baseline(tmp_path)
        previous = load_baseline(path)
        # a run over src/b.py alone neither saw nor fixed src/a.py's debt
        write_baseline([self.NEW], path, previous, ["src/b.py"])
        entries = load_baseline(path)
        assert [(e.rule, e.path) for e in entries] == [
            ("ERR001", "src/a.py"), ("PAR002", "src/b.py"),
        ]
        assert entries[0].reason == previous[0].reason
        # a run that analysed src/a.py and found it clean drops its entry
        write_baseline([self.NEW], path, entries, ["src/a.py", "src/b.py"])
        assert [e.path for e in load_baseline(path)] == ["src/b.py"]


# ---------------------------------------------------------------------------
# file discovery (exclusion matching regression)


class TestExclusionMatching:
    def test_fragment_matches_segments_not_substrings(self, tmp_path):
        write_tree(tmp_path, {
            "src/obs/watch.py": "x = 1\n",
            "src/jobs.py": "x = 1\n",  # 'obs' is a substring of 'jobs.py'
        })
        config = LintConfig(exclude=("obs",))
        found = iter_python_files([str(tmp_path / "src")], config)
        names = [p.name for p in found]
        assert "jobs.py" in names
        assert "watch.py" not in names

    def test_multi_segment_fragment_matches_contiguous_run(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/obs/watch.py": "x = 1\n",
            "src/other/obs_tools.py": "x = 1\n",
        })
        config = LintConfig(exclude=("repro/obs",))
        found = iter_python_files([str(tmp_path / "src")], config)
        names = [p.name for p in found]
        assert names == ["obs_tools.py"]
