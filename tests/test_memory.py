"""Tests for the memory hierarchy model."""

import pytest

from repro.arch import MemorySystem, TPUV1, TPUV3, TPUV4I
from repro.arch.memory import MemoryLevel
from repro.util.units import MIB


class TestLevels:
    def test_v4i_has_three_levels(self):
        names = [l.name for l in MemorySystem(TPUV4I).levels()]
        assert names == ["vmem", "cmem", "hbm"]

    def test_v3_has_no_cmem(self):
        mem = MemorySystem(TPUV3)
        assert [l.name for l in mem.levels()] == ["vmem", "hbm"]
        with pytest.raises(KeyError):
            mem.level("cmem")

    def test_cmem_faster_than_hbm(self):
        mem = MemorySystem(TPUV4I)
        assert mem.cmem.bandwidth > 3 * mem.hbm.bandwidth
        assert mem.cmem.latency_cycles < mem.hbm.latency_cycles

    def test_level_validation(self):
        with pytest.raises(ValueError):
            MemoryLevel("x", 0, 1.0, 1)
        with pytest.raises(ValueError):
            MemoryLevel("x", 1, -1.0, 1)


class TestTransferTiming:
    def test_zero_bytes_zero_cycles(self):
        assert MemorySystem(TPUV4I).stream_cycles("hbm", 0) == 0

    def test_includes_latency(self):
        mem = MemorySystem(TPUV4I)
        assert mem.stream_cycles("hbm", 1) >= TPUV4I.hbm_latency_cycles

    def test_bandwidth_scaling(self):
        mem = MemorySystem(TPUV4I)
        small = mem.stream_cycles("hbm", 1 * MIB)
        large = mem.stream_cycles("hbm", 64 * MIB)
        assert large > 10 * (small - TPUV4I.hbm_latency_cycles)

    def test_transfer_seconds(self):
        mem = MemorySystem(TPUV4I)
        secs = mem.hbm.transfer_seconds(TPUV4I.hbm_bw)  # 1 second of traffic
        assert secs == pytest.approx(1.0)


class TestTrafficLedger:
    def test_records(self):
        mem = MemorySystem(TPUV4I)
        mem.record_traffic("hbm", 100)
        mem.record_traffic("hbm", 50)
        mem.record_traffic("cmem", 10)
        assert mem.traffic()["hbm"] == 150
        assert mem.traffic()["cmem"] == 10

    def test_unknown_level_rejected(self):
        with pytest.raises(KeyError):
            MemorySystem(TPUV1).record_traffic("cmem", 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem(TPUV4I).record_traffic("hbm", -1)
