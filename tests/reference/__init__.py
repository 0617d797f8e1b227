"""Test-only reference implementations (oracles) of production loops."""
