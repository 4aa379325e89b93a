"""Shared fixtures and the acceptance-criteria summary hook."""

from hypothesis import settings

import numpy as np
import pytest

from nldm import Trajectory

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Filled by tests/test_acceptance.py, printed once at the end of the run so
# every criterion gets its own visible pass/fail line.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def series(values, dt=0.1, t0=0.0):
    """Build a 1-state trajectory from a flat list of samples."""
    return Trajectory(np.asarray(values, dtype=float).reshape(-1, 1), dt=dt, t0=t0)


@pytest.fixture
def make_series():
    return series


def graded_permutation(exponents, rng):
    """Permutation that shuffles monomials within each total-degree block.

    ``MonomialBasis.from_exponents`` takes the graded monomials in any
    order within degrees and no other, so shuffling inside degree blocks
    exercises every ordering freedom the format actually has.
    """
    degrees = exponents.sum(axis=1)
    perm = np.arange(len(exponents))
    for degree in np.unique(degrees):
        idx = np.flatnonzero(degrees == degree)
        perm[idx] = rng.permutation(idx)
    return perm
