"""``repro-lint``: project-specific static analysis for the concurrent engine.

The generic lint gate (ruff) catches generic bugs; this package checks the
*project's own* invariants — the hand-maintained rules the sharding and
serving layers rest on (lock discipline, drain-before-swap, repro-error-only
raises, hot-path loop inventory).  Two halves:

* **AST lint rules** (:mod:`tools.analyze.rules`, driven by
  :mod:`tools.analyze.driver`):

  ========  ==========================================================
  CONC001   blocking call (``Queue.get/put``, ``collect``, ``join``,
            ``sleep``, ``Condition.wait``) inside a ``with self._lock:``
            body
  CONC002   attribute declared ``# guarded-by: <lock>`` accessed outside
            a matching ``with`` block (or outside its owner methods for
            the ``owner=`` confinement form)
  CONC003   ``threading.Thread`` created without ``daemon=`` or a
            tracked ``join()``
  EXC001    swallowed broad ``except`` (no re-raise, no logging, no use
            of the caught exception)
  ERR001    raising bare builtin exceptions instead of
            :mod:`repro.errors` types from ``src/repro/**``
  HOT001    per-edge Python loop inside a function marked ``# hot-path``
            (the machine-checked vectorization inventory); hot-path
            functions driving ``*_array``/numpy bulk calls are compliant
  ========  ==========================================================

* **Interprocedural rules** (:mod:`tools.analyze.callgraph` builds a
  conservative whole-program call graph over ``src/repro``;
  :mod:`tools.analyze.propagate` runs fixpoint dataflow over it):

  ========  ==========================================================
  CONC004   a call *chain* from a with-lock region reaches a blocking
            primitive at any depth (the transitive completion of
            CONC001); reports the full chain
  ERR002    a builtin exception type can escape a public
            ``ShardedSummary``/``ServingEngine``/snapshot entry point
            instead of a :mod:`repro.errors` type (the interprocedural
            completion of ERR001); reports the escape chain
  PICK001   unpicklable state (locks, threads, queues, sockets, open
            files, generators, lambdas/closures) is reachable from a
            value crossing the ``ProcessShardWorker``/snapshot pickle
            boundary
  ========  ==========================================================

* **Dead-code rule** (:mod:`tools.analyze.deadcode`), run with the
  interprocedural rules whenever ``src/repro`` is analyzed:

  ========  ==========================================================
  DEAD001   a ``def`` or ``class`` of ``src/repro`` that no ``.py`` file
            under ``src/``, ``benchmarks/``, ``perfbench/``, ``tools/``
            or ``examples/`` names outside its own body — code only
            tests call
  ========  ==========================================================

  Findings support inline ``# repro-lint: ok <RULE>`` suppressions and a
  committed baseline (``tools/analyze/baseline.json``) whose every entry
  carries a written justification, so only *new* findings fail the build::

      python -m tools.analyze src/

  ``--cache <file>`` persists the call graph keyed on a source
  fingerprint; ``--ci`` turns stale baseline entries into exit-2 errors;
  ``--counts`` prints a per-rule new/suppressed/baselined table.

* **Runtime lock-order detector** (:mod:`tools.analyze.lockgraph`): an
  instrumented ``Lock``/``RLock``/``Condition`` factory recording per-thread
  acquisition stacks, building the global lock-order graph, and reporting
  cycles (potential deadlocks) and blocking waits while holding another
  lock.  The ``lock_monitor`` pytest fixture (``tests/conftest.py``) patches
  it in for the serving/sharding stress tests.
"""

from __future__ import annotations

from .callgraph import CallGraph, build_package_graph
from .driver import (REPO_ROOT, analyze_paths, analyze_source,
                     interprocedural_findings, load_baseline,
                     load_or_build_graph, main)
from .propagate import INTER_RULES, EntrySpec, run_interprocedural
from .rules import Finding, RULES

__all__ = ["CallGraph", "EntrySpec", "Finding", "INTER_RULES", "REPO_ROOT",
           "RULES", "analyze_paths", "analyze_source", "build_package_graph",
           "interprocedural_findings", "load_baseline", "load_or_build_graph",
           "main", "run_interprocedural"]
