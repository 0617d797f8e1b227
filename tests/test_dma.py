"""Tests for the DMA engine model."""

import pytest

from repro.arch import DmaEngine, MemorySystem, TPUV4I
from repro.util.units import MIB


@pytest.fixture()
def memory():
    return MemorySystem(TPUV4I)


class TestIssue:
    def test_serializes_on_one_engine(self, memory):
        engine = DmaEngine(memory, "hbm")
        first = engine.issue(1 * MIB, issue_cycle=0)
        second = engine.issue(1 * MIB, issue_cycle=0)
        assert second.start_cycle == first.end_cycle

    def test_idle_engine_starts_at_issue(self, memory):
        engine = DmaEngine(memory, "hbm")
        t = engine.issue(1 * MIB, issue_cycle=1000)
        assert t.start_cycle == 1000

    def test_contention_slows_transfer(self, memory):
        a = DmaEngine(memory, "hbm").issue(4 * MIB, 0, contention=1)
        b = DmaEngine(memory, "hbm").issue(4 * MIB, 0, contention=4)
        assert b.duration > 3 * (a.duration - 64 - TPUV4I.hbm_latency_cycles)

    def test_traffic_recorded(self, memory):
        DmaEngine(memory, "hbm").issue(123, 0)
        assert memory.traffic()["hbm"] == 123

    def test_cmem_faster_than_hbm(self, memory):
        hbm = DmaEngine(memory, "hbm").issue(16 * MIB, 0)
        cmem = DmaEngine(memory, "cmem").issue(16 * MIB, 0)
        assert cmem.duration < hbm.duration

    def test_zero_byte_transfer_costs_overhead_only(self, memory):
        t = DmaEngine(memory, "hbm").issue(0, 0)
        assert t.duration == 64 + TPUV4I.hbm_latency_cycles

    def test_rejects_bad_args(self, memory):
        engine = DmaEngine(memory, "hbm")
        with pytest.raises(ValueError):
            engine.issue(-1, 0)
        with pytest.raises(ValueError):
            engine.issue(1, 0, contention=0)

    def test_unknown_level_rejected_at_construction(self, memory):
        with pytest.raises(KeyError):
            DmaEngine(memory, "l2")


class TestBookkeeping:
    def test_totals(self, memory):
        engine = DmaEngine(memory, "hbm")
        engine.issue(100, 0)
        engine.issue(200, 0)
        assert engine.busy_cycles() == sum(t.duration for t in engine.completed)
