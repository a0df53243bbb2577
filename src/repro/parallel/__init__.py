"""Sweep acceleration: profile caching and the perf-tracking bench.

The paper's expensive experiments are embarrassingly parallel — Fig. 7 is
independent Monte Carlo mixes, Figs. 8/9 independent (mix, scheme)
simulations — and every work item is a pure function of its inputs.  The
fan-out itself is :class:`~repro.fabric.supervisor.Supervisor`; this
package holds what sits around it:

* :mod:`~repro.parallel.profile_cache` memoizes the 26-workload MSA
  profiling pass on disk, keyed by everything that determines a curve;
* :mod:`~repro.parallel.bench` is the ``repro bench`` perf-tracking suite
  (imported directly by the CLI, not re-exported here).
"""

from repro.parallel.profile_cache import ProfileCache, default_cache_dir

__all__ = [
    "ProfileCache",
    "default_cache_dir",
]
