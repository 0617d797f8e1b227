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

Other dtypes (the int8 path TPUv1 served on) are a fresh
:func:`~repro.compiler.pipeline.retarget_dtype` of the shared bf16 build
on every call. They are not memoized: a kept retarget would pin its
compile memo (expanded graph, fusion, memory plan and lowering) for the
life of the process, and each one is compiled by one chip in practice.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.compiler.pipeline import retarget_dtype

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.hlo import HloModule
    from repro.workloads.models import WorkloadSpec

_MODULES: dict[tuple[str, int], "HloModule"] = {}
_LOCK = threading.Lock()


def built_module(spec: "WorkloadSpec", batch: int,
                 dtype: str = "bf16") -> "HloModule":
    """``spec.build(batch)`` in ``dtype``.

    The bf16 build is memoized per process by (name, batch) and
    returned as is; any other dtype is a fresh retarget of it.
    """
    key = (spec.name, batch)
    with _LOCK:
        module = _MODULES.get(key)
    if module is None:
        module = spec.build(batch)
        with _LOCK:
            module = _MODULES.setdefault(key, module)
    return module if dtype == "bf16" else retarget_dtype(module, dtype)


def clear_modules() -> None:
    with _LOCK:
        _MODULES.clear()
