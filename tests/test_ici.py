"""Tests for the inter-chip interconnect model."""

import pytest

from repro.arch import IciLink
from repro.util.units import GIGA


class TestLink:
    def test_transfer_time(self):
        link = IciLink(bandwidth=100 * GIGA, latency_s=1e-6)
        assert link.transfer_seconds(100 * GIGA) == pytest.approx(1.0, rel=1e-4)

    def test_latency_floor(self):
        link = IciLink(bandwidth=100 * GIGA, latency_s=1e-6)
        assert link.transfer_seconds(0) == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            IciLink(0)
        with pytest.raises(ValueError):
            IciLink(1.0).transfer_seconds(-1)


class TestLinkValidation:
    """Named-value rejection of NaN/zero/negative parameters (the
    FaultModel error-message convention, extended to the interconnect)."""

    def test_nan_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth must not be NaN"):
            IciLink(float("nan"))

    def test_zero_bandwidth_names_the_value(self):
        with pytest.raises(ValueError,
                           match="bandwidth must be positive, got 0"):
            IciLink(0)

    def test_negative_bandwidth_names_the_value(self):
        with pytest.raises(ValueError,
                           match=r"bandwidth must be positive, got -3\.0"):
            IciLink(-3.0)

    def test_nan_latency_rejected(self):
        with pytest.raises(ValueError, match="latency_s must not be NaN"):
            IciLink(1.0, latency_s=float("nan"))

    def test_negative_latency_names_the_value(self):
        with pytest.raises(ValueError,
                           match=r"latency_s must be non-negative, got -1"):
            IciLink(1.0, latency_s=-1e-6)

    def test_zero_latency_allowed(self):
        assert IciLink(1.0, latency_s=0.0).transfer_seconds(2) == 2.0

    def test_nan_bytes_rejected(self):
        with pytest.raises(ValueError, match="bytes must not be NaN"):
            IciLink(1.0).transfer_seconds(float("nan"))

    def test_negative_bytes_names_the_value(self):
        with pytest.raises(ValueError,
                           match="bytes must be non-negative, got -1"):
            IciLink(1.0).transfer_seconds(-1)
