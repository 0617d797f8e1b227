"""repro: a reproduction of "Ten Lessons From Three Generations Shaped
Google's TPUv4i" (Jouppi et al., ISCA 2021).

The library models the TPUv1/v2/v3/v4i family as a cycle-approximate
simulator stack — chips, VLIW ISA, XLA-like compiler, serving and TCO
models — and regenerates the paper's evaluation around its ten lessons.

Quick start::

    from repro import DesignPoint, TPUV4I, app_by_name

    point = DesignPoint(TPUV4I)
    bert = app_by_name("bert0")
    evaluation = point.evaluate(bert)
    print(evaluation.latency_s, evaluation.chip_qps, evaluation.tops_per_watt)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.

Exports are lazy (PEP 562): ``import repro`` loads no submodule, and a
name is imported from its defining module the first time it is read
(DESIGN.md, "Import layering").
"""

import importlib as _importlib
import sys as _sys


def _lazy_exports(package, exports, submodules=()):
    """A package's ``__getattr__``, ``__dir__`` and ``__all__``, lazily.

    ``exports`` maps each defining module to the names the package
    re-exports from it. Reading one of those names imports the module
    and caches the object in the package namespace, so later reads are
    plain attribute lookups. Each defining module that is a direct child
    of the package, and every name in ``submodules``, resolves to the
    submodule itself, as it did when the package imported it eagerly.
    ``__all__`` lists the exported names in map order, so each public
    name is declared once; a star import reads them all.
    """
    namespace = _sys.modules[package].__dict__
    owners = {name: module for module, names in exports.items()
              for name in names}
    children = {module.rpartition(".")[2] for module in exports
                if module.rpartition(".")[0] == package}
    children.update(submodules)

    def __getattr__(name):
        if name in owners:
            value = getattr(_importlib.import_module(owners[name]), name)
        elif name in children:
            value = _importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owners) | children)

    return __getattr__, __dir__, list(owners)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.arch.chip": ("ChipConfig", "GENERATIONS", "TPUV1", "TPUV2",
                        "TPUV3", "TPUV4I", "chip_by_name"),
    "repro.compiler.pipeline": ("CompiledModel", "compile_model"),
    "repro.compiler.versions": ("CompilerVersion", "LATEST", "RELEASES"),
    "repro.compiler.compat": ("migrate_model",),
    "repro.core.design_point": ("DesignPoint", "Evaluation"),
    "repro.graph.hlo": ("GraphBuilder", "HloModule"),
    "repro.graph.shapes": ("Shape",),
    "repro.roofline.model": ("chip_roofline", "place_module"),
    "repro.serving.slo": ("Slo",),
    "repro.serving.batching": ("BatchPolicy",),
    "repro.serving.server": ("ServingSimulator",),
    "repro.sim.core": ("TensorCoreSim",),
    "repro.tco.model": ("chip_tco", "perf_per_tco"),
    "repro.workloads.models": ("PRODUCTION_APPS", "app_by_name"),
}, submodules=(
    "arch", "cli", "cluster", "compiler", "core", "engine", "faults",
    "graph", "isa", "mlcompat", "numerics", "obs", "pod", "roofline",
    "runtime", "serving", "sim", "tco", "tech", "util", "workloads",
))

__version__ = "1.0.0"
__all__.append("__version__")
