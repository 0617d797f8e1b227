"""Tests for repro.util.units."""

from repro.util.units import GIB, GIGA, KIB, MIB


class TestConstants:
    def test_binary_multipliers_chain(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_decimal_vs_binary_differ(self):
        assert GIGA != GIB
        assert GIGA < GIB
