"""Shared fixtures for the durability suite.

Everything runs over :mod:`repro.durable.crashsim`'s deterministic seeded
scripts and its 1 km frame — the oracle a recovered store is compared
against is always "the same script applied to a store that never crashed".
"""

from __future__ import annotations

import pytest

from repro.durable import crashsim


@pytest.fixture(scope="session")
def crash_frame():
    return crashsim.default_frame()


@pytest.fixture()
def script():
    """A 25-op insert/delete/flush/compact interleaving (seed 101)."""
    return crashsim.make_script(seed=101, ops=25)
