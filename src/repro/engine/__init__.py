"""The shared evaluation engine: result caching + batched grid sweeps.

Every layer above the compiler (DSE, serving, fleet sizing, benchmarks)
funnels workload evaluation through :class:`~repro.core.design_point.
DesignPoint`, and DesignPoint funnels it through this package:

* :mod:`repro.engine.keys` — content-addressed keys covering every chip
  field, the compiler release, workload, batch, CMEM budget and dtype;
* :mod:`repro.engine.cache` — :class:`EvalCache`, the disk tier behind
  each DesignPoint's in-process memo (enable it with
  ``REPRO_CACHE_DIR=.repro_cache`` or :func:`configure_cache`; without
  a directory it stores nothing);
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

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.engine.cache": ("CacheStats", "EvalCache", "configure_cache",
                           "get_cache", "set_cache"),
    "repro.engine.grid": ("GridJob", "evaluate_jobs", "run_grid"),
    "repro.engine.keys": ("chip_fingerprint", "compile_chip_fingerprint",
                          "compiler_fingerprint", "eval_key", "fingerprint"),
    "repro.engine.modules": ("built_module", "clear_modules"),
})
