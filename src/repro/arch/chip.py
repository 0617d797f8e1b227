"""Chip configurations for the four TPU generations (the paper's Table 1).

Each :class:`ChipConfig` carries the architectural parameters every other
model in the library derives from: MXU organization and clock set peak
throughput; the memory hierarchy sets roofline slopes; process node feeds the
power and cost models; the cooling field encodes Lesson 8's air-cooling
constraint. Published values are used where public (process node, clocks, MXU
counts, HBM bandwidths, TDPs); the rest are set to reproduce the published
peaks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Tuple

from repro.util.units import GHZ, GIB, MHZ, MIB, GIGA, TERA


@dataclass(frozen=True)
class ChipConfig:
    """One TPU chip design point.

    Attributes:
        name: e.g. ``"TPUv4i"``.
        generation: 1-4; drives ISA binary-format versioning (Lesson 2).
        year_deployed: first production deployment.
        process: process-node name resolvable via ``repro.tech.node_by_name``.
        die_mm2: die area.
        cores: TensorCores per chip.
        mxus_per_core: systolic arrays per core.
        mxu_dim: systolic array dimension (128, or 256 on TPUv1).
        clock_hz: core clock.
        vpu_lanes / vpu_sublanes: vector unit shape; ops/cycle = lanes*sublanes*2.
        vmem_bytes: per-core vector memory (compiler-managed scratchpad).
        cmem_bytes: per-chip "common memory" SRAM (TPUv4i's 128 MiB; 0 elsewhere).
        hbm_bytes / hbm_bw: off-chip memory capacity and bandwidth (DDR3 on v1).
        hbm_latency_cycles: load-use latency of off-chip memory.
        cmem_bw / cmem_latency_cycles: CMEM bandwidth/latency (ignored if no CMEM).
        ici_links / ici_link_bw: inter-chip interconnect.
        tdp_w / idle_w: thermal design power and idle power.
        cooling: ``"air"`` or ``"liquid"`` (Lesson 8).
        dtypes: supported arithmetic types (Lesson 7: v4i keeps bf16).
        isa_version: binary-format version; differs every generation, which is
            why binary compatibility was abandoned in favour of compiler
            compatibility (Lesson 2).

    Numeric fields have one canonical form: ``float`` fields are stored
    as ``float`` and ``int`` fields as ``int``, so two equal configs
    (``clock_hz=1e9`` and ``clock_hz=10**9``) also have equal cache
    keys. A bool, a non-number, or a non-integral value for an ``int``
    field raises ``ValueError``.
    """

    name: str
    generation: int
    year_deployed: int
    process: str
    die_mm2: float
    cores: int
    mxus_per_core: int
    mxu_dim: int
    clock_hz: float
    vpu_lanes: int
    vpu_sublanes: int
    vmem_bytes: int
    cmem_bytes: int
    hbm_bytes: int
    hbm_bw: float
    hbm_latency_cycles: int
    cmem_bw: float
    cmem_latency_cycles: int
    ici_links: int
    ici_link_bw: float
    tdp_w: float
    idle_w: float
    cooling: str
    dtypes: Tuple[str, ...]
    isa_version: int

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.cooling not in ("air", "liquid"):
            raise ValueError(f"cooling must be 'air' or 'liquid', got {self.cooling!r}")
        if self.mxu_dim <= 0 or self.cores <= 0 or self.mxus_per_core <= 0:
            raise ValueError("core/MXU organization must be positive")
        if self.cmem_bytes < 0 or self.vmem_bytes <= 0:
            raise ValueError("memory capacities must be non-negative (vmem positive)")
        if self.idle_w >= self.tdp_w:
            raise ValueError("idle power must be below TDP")
        if not self.dtypes:
            raise ValueError("a chip must support at least one dtype")

    # ------------------------------------------------------------------ peaks

    @property
    def macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle across all MXUs."""
        return self.cores * self.mxus_per_core * self.mxu_dim * self.mxu_dim

    @property
    def peak_ops(self) -> float:
        """Peak ops/s (1 MAC = 2 ops), the roofline ceiling."""
        return 2.0 * self.macs_per_cycle * self.clock_hz

    @property
    def peak_tops(self) -> float:
        """Peak throughput in tera-ops/s (TOPS) for reporting."""
        return self.peak_ops / TERA

    @property
    def vpu_ops_per_cycle(self) -> int:
        """Peak vector ops/cycle (2 ALU ops per sublane)."""
        return self.cores * self.vpu_lanes * self.vpu_sublanes * 2

    @property
    def on_chip_bytes(self) -> int:
        """Total software-visible on-chip memory (VMEM across cores + CMEM)."""
        return self.cores * self.vmem_bytes + self.cmem_bytes

    @property
    def has_cmem(self) -> bool:
        return self.cmem_bytes > 0

    def supports_dtype(self, dtype: str) -> bool:
        return dtype in self.dtypes

    @property
    def native_dtype(self) -> str:
        """The serving dtype: bf16 where supported, else int8 (TPUv1)."""
        return "bf16" if self.supports_dtype("bf16") else "int8"

    def ridge_ops_per_byte(self) -> float:
        """Operational intensity where HBM bandwidth stops limiting (roofline ridge)."""
        return self.peak_ops / self.hbm_bw

    def variant(self, name: str, **overrides) -> "ChipConfig":
        """A renamed copy with overridden fields, for design-space exploration."""
        return replace(self, name=name, **overrides)


_FLOAT_FIELDS = tuple(f.name for f in fields(ChipConfig) if f.type == "float")
_INT_FIELDS = tuple(f.name for f in fields(ChipConfig) if f.type == "int")


def _as_float(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"ChipConfig.{name} must be a number, got {value!r}")
    return float(value) + 0.0  # + 0.0 folds -0.0 into 0.0


def _as_int(name: str, value) -> int:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ValueError(f"ChipConfig.{name} must be an integer, got {value!r}")
    return int(value)


# --------------------------------------------------------------------------
# The four generations. Peak checks (asserted in tests):
#   TPUv1:  1 core * 1 MXU * 256^2 MACs * 2 * 700 MHz  = 91.8 TOPS (int8)
#   TPUv2:  2 cores * 1 MXU * 128^2 * 2 * 700 MHz      = 45.9 TFLOPS (bf16)
#   TPUv3:  2 cores * 2 MXU * 128^2 * 2 * 940 MHz      = 123.2 TFLOPS (bf16)
#   TPUv4i: 1 core * 4 MXU * 128^2 * 2 * 1.05 GHz      = 137.6 TOPS (bf16/int8)
# --------------------------------------------------------------------------

TPUV1 = ChipConfig(
    name="TPUv1",
    generation=1,
    year_deployed=2015,
    process="28nm",
    die_mm2=331.0,
    cores=1,
    mxus_per_core=1,
    mxu_dim=256,
    clock_hz=700 * MHZ,
    vpu_lanes=256,
    vpu_sublanes=1,
    vmem_bytes=24 * MIB,  # the Unified Buffer
    cmem_bytes=0,
    hbm_bytes=8 * GIB,  # DDR3, not HBM
    hbm_bw=34 * GIGA,
    hbm_latency_cycles=220,
    cmem_bw=0.0,
    cmem_latency_cycles=0,
    ici_links=0,
    ici_link_bw=0.0,
    tdp_w=75.0,
    idle_w=28.0,
    cooling="air",
    dtypes=("int8",),
    isa_version=1,
)

TPUV2 = ChipConfig(
    name="TPUv2",
    generation=2,
    year_deployed=2017,
    process="16nm",
    die_mm2=611.0,
    cores=2,
    mxus_per_core=1,
    mxu_dim=128,
    clock_hz=700 * MHZ,
    vpu_lanes=128,
    vpu_sublanes=8,
    vmem_bytes=16 * MIB,
    cmem_bytes=0,
    hbm_bytes=16 * GIB,
    hbm_bw=700 * GIGA,
    hbm_latency_cycles=240,
    cmem_bw=0.0,
    cmem_latency_cycles=0,
    ici_links=4,
    ici_link_bw=62.5 * GIGA,
    tdp_w=280.0,
    idle_w=100.0,
    cooling="air",
    dtypes=("bf16", "fp32"),
    isa_version=2,
)

TPUV3 = ChipConfig(
    name="TPUv3",
    generation=3,
    year_deployed=2018,
    process="16nm",
    die_mm2=648.0,
    cores=2,
    mxus_per_core=2,
    mxu_dim=128,
    clock_hz=940 * MHZ,
    vpu_lanes=128,
    vpu_sublanes=8,
    vmem_bytes=16 * MIB,
    cmem_bytes=0,
    hbm_bytes=32 * GIB,
    hbm_bw=900 * GIGA,
    hbm_latency_cycles=250,
    cmem_bw=0.0,
    cmem_latency_cycles=0,
    ici_links=4,
    ici_link_bw=81.25 * GIGA,
    tdp_w=450.0,
    idle_w=160.0,
    cooling="liquid",
    dtypes=("bf16", "fp32"),
    isa_version=3,
)

TPUV4I = ChipConfig(
    name="TPUv4i",
    generation=4,
    year_deployed=2020,
    process="7nm",
    die_mm2=400.0,
    cores=1,
    mxus_per_core=4,
    mxu_dim=128,
    clock_hz=1.05 * GHZ,
    vpu_lanes=128,
    vpu_sublanes=8,
    vmem_bytes=16 * MIB,
    cmem_bytes=128 * MIB,
    hbm_bytes=8 * GIB,
    hbm_bw=614 * GIGA,
    hbm_latency_cycles=260,
    cmem_bw=2.8 * TERA,  # wide on-chip SRAM: several x HBM bandwidth
    cmem_latency_cycles=20,
    ici_links=2,
    ici_link_bw=100 * GIGA,
    tdp_w=175.0,
    idle_w=55.0,
    cooling="air",
    dtypes=("bf16", "int8", "fp32"),
    isa_version=4,
)

GENERATIONS: Tuple[ChipConfig, ...] = (TPUV1, TPUV2, TPUV3, TPUV4I)

_BY_NAME: Dict[str, ChipConfig] = {c.name: c for c in GENERATIONS}


def chip_by_name(name: str) -> ChipConfig:
    """Look up a production generation by name (``"TPUv4i"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown chip {name!r}; known: {known}") from None
