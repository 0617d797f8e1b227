"""Process-technology models (Lesson 1: technology advances unequally).

The paper's first lesson is that logic, SRAM, and wires improve at very
different rates as CMOS scales, which pushed TPUv4i toward big compute and
big on-chip memory *budgeted* against the parts of the chip that stopped
scaling. This package provides per-node density/delay/energy models and the
scaling trajectories the benchmark for that figure sweeps.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "repro.tech.node": ("ProcessNode", "NODES", "node_by_name"),
    "repro.tech.scaling": ("ScalingSeries", "logic_density_series",
                           "sram_density_series", "wire_delay_series",
                           "energy_per_op_series", "relative_improvement"),
})
