"""``repro.lint.xmod`` — the whole-program half of the lint pass.

Layers (each usable on its own):

* :mod:`~repro.lint.xmod.symbols` — read, parse and tokenize the tree
  once; import/symbol resolution
  (:class:`~repro.lint.xmod.symbols.Project`, which every rule runs on);
* :mod:`~repro.lint.xmod.callgraph` — approximate call graph over the
  project's function units;
* :mod:`~repro.lint.xmod.dataflow` — shared per-function facts (mutable
  globals, submission sites, mutation sites);
* :mod:`~repro.lint.xmod.rules` — PAR001/PAR002/DET003/TEL001/ERR001 and
  the :class:`~repro.lint.xmod.rules.RuleContext` every rule sees.
"""

from repro.lint.xmod.callgraph import CallGraph, build_call_graph
from repro.lint.xmod.symbols import Project

__all__ = [
    "CallGraph",
    "Project",
    "build_call_graph",
]
