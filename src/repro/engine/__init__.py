"""The shared evaluation engine: result caching + batched grid sweeps.

Every layer above the compiler (DSE, serving, fleet sizing, benchmarks)
funnels workload evaluation through :class:`~repro.core.design_point.
DesignPoint`, and DesignPoint funnels it through this package:

* :mod:`repro.engine.keys` — content-addressed keys covering every chip
  field, the compiler release, workload, batch, CMEM budget and dtype;
* :mod:`repro.engine.cache` — the two-tier :class:`EvalCache`
  (in-process dict + optional ``.repro_cache/`` disk tier; enable with
  ``REPRO_CACHE_DIR=.repro_cache`` or :func:`configure_cache`);
* :mod:`repro.engine.modules` — chip-independent built-module sharing;
* :mod:`repro.engine.grid` — :func:`run_grid` / :func:`evaluate_jobs`,
  the one sweep path: cache-excluded jobs batched through the grid
  kernel, used by ``repro.core.dse``, the serving simulator and the
  planners.

Timing the engine is ``perfbench/``'s job (see ``BENCHMARK.json``).

Determinism guarantee: cached and uncached evaluation of the same inputs
produce identical records (pure arithmetic, results in job order);
``tests/test_engine.py`` asserts this.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.engine.cache": ("CacheStats", "EvalCache", "configure_cache",
                           "get_cache", "set_cache"),
    "repro.engine.grid": ("GridJob", "evaluate_jobs", "run_grid"),
    "repro.engine.keys": ("chip_fingerprint", "compile_chip_fingerprint",
                          "compiler_fingerprint", "eval_key", "fingerprint"),
    "repro.engine.modules": ("built_module", "clear_modules"),
})

__all__ = [
    "CacheStats",
    "EvalCache",
    "GridJob",
    "built_module",
    "chip_fingerprint",
    "clear_modules",
    "compile_chip_fingerprint",
    "compiler_fingerprint",
    "configure_cache",
    "eval_key",
    "evaluate_jobs",
    "fingerprint",
    "get_cache",
    "run_grid",
    "set_cache",
]
