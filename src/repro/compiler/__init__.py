"""XLA-like compiler: HLO modules -> scheduled VLIW programs.

The pipeline mirrors the passes that mattered in the paper's story:

1. **expansion** — composites (softmax, layernorm) become primitives;
2. **fusion** — elementwise chains fuse with their producers, eliminating
   memory round-trips (the single biggest compiler win);
3. **allocation** — weights are placed in CMEM when they fit (TPUv4i's
   headline feature) and HBM otherwise; oversized activations spill;
4. **tiling + lowering** — matmuls/convs tile to the MXU and VMEM, every
   HLO becomes DMA/MXM/vector instruction sequences, with the DMA levels
   the allocation decides left as slots;
5. **scheduling** — instructions pack into VLIW bundles, with DMA prefetch
   hoisted across compute at higher optimization levels; the bundles'
   level slots are then bound with each compile's memory plan.

``versions`` models fifteen months of compiler releases as growing feature
sets (the Lesson 2 "performance arrives by software" figure), and
``compat`` demonstrates the compatibility contract: binaries never cross
generations, HLO always does.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.compiler.expansion": ("expand_composites",),
    "repro.compiler.fusion": ("FusionPlan", "plan_fusion"),
    "repro.compiler.allocator": ("MemoryPlan", "plan_memory"),
    "repro.compiler.tiling": ("TileShape", "plan_matmul_tiles"),
    "repro.compiler.lowering": ("LoweredModule", "LoweredOp",
                                "lower_module"),
    "repro.compiler.scheduler": ("schedule",),
    "repro.compiler.pipeline": ("CompiledModel", "compile_model"),
    "repro.compiler.profiler": ("ModuleProfile", "OpProfile",
                                "profile_module"),
    "repro.compiler.versions": ("CompilerVersion", "RELEASES",
                                "release_by_name", "LATEST"),
    "repro.compiler.compat": ("CompatReport", "binary_runs_on",
                              "migrate_model"),
})

__all__ = [
    "expand_composites",
    "FusionPlan",
    "plan_fusion",
    "MemoryPlan",
    "plan_memory",
    "TileShape",
    "plan_matmul_tiles",
    "LoweredModule",
    "LoweredOp",
    "lower_module",
    "schedule",
    "CompiledModel",
    "compile_model",
    "ModuleProfile",
    "OpProfile",
    "profile_module",
    "CompilerVersion",
    "RELEASES",
    "release_by_name",
    "LATEST",
    "CompatReport",
    "binary_runs_on",
    "migrate_model",
]
