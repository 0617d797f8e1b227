"""Process-wide cache of built (unCompiled) workload modules.

Building an :class:`~repro.graph.hlo.HloModule` is chip-independent —
``spec.build(batch)`` produces the same graph no matter which design
point will compile it — yet the pre-engine code rebuilt it for every
candidate in a sweep (a 3x3 DSE grid built ``rnn0`` nine times).
This module builds each (workload, batch) once per process and shares
the result; ``compile_model`` never changes its input's graph (it
expands into a fresh module), so sharing is safe. Sharing also shares
the compile memo each module carries (``HloModule.memo``): a shared
module is validated, expanded and lowered once per lowering key,
however many chips compile it.

Workers forked by the :class:`~repro.engine.parallel.ParallelSweeper`
inherit the parent's populated cache for free.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.hlo import HloModule
    from repro.workloads.models import WorkloadSpec

_MODULES: dict[tuple[str, int], "HloModule"] = {}
_LOCK = threading.Lock()
_ENABLED = True


def built_module(spec: "WorkloadSpec", batch: int) -> "HloModule":
    """``spec.build(batch)``, memoized per process by (name, batch)."""
    if not _ENABLED:
        return spec.build(batch)
    key = (spec.name, batch)
    with _LOCK:
        module = _MODULES.get(key)
    if module is None:
        module = spec.build(batch)
        with _LOCK:
            _MODULES.setdefault(key, module)
    return module


def module_cache_size() -> int:
    with _LOCK:
        return len(_MODULES)


def clear_modules() -> None:
    with _LOCK:
        _MODULES.clear()


@contextmanager
def module_cache_disabled() -> Iterator[None]:
    """Force fresh builds (used to time the legacy, cache-free path)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous
