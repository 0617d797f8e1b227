"""Recompute every checked-in golden digest and compare (``tests/goldens.py``).

A mismatch means a change altered outputs. If that was the intent,
regenerate with ``PYTHONPATH=src python -m tests.goldens`` and say why
in the change description; otherwise the change broke an output.

Suites are recomputed on first use, so ``-k keys`` computes only the
``keys`` suite.
"""

import functools

import pytest

from tests import goldens

SUITES = list(goldens.SUITES)
CASES = [(suite, name) for suite in SUITES
         for name in sorted(goldens.load(suite))]


@pytest.fixture(scope="module")
def recomputed():
    return functools.cache(goldens.compute)


def test_every_case_is_checked_in(recomputed):
    for suite in SUITES:
        assert sorted(recomputed(suite)) == sorted(goldens.load(suite)), suite


@pytest.mark.parametrize("suite,name", CASES,
                         ids=[f"{s}-{n}" for s, n in CASES])
def test_digest_unchanged(recomputed, suite, name):
    assert recomputed(suite)[name] == goldens.load(suite)[name]
