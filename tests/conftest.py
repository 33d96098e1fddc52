"""Fixtures shared by the test modules."""
from __future__ import annotations

from functools import cache

import pytest

from dpweights.classify import classify_index
from dpweights.oracle import brute_force


@pytest.fixture(scope="session")
def classified():
    """``classify_index`` memoised for the whole session.

    Tests that monkeypatch the classifier's collaborators call
    ``classify_index`` itself, so that they never read or fill this cache.
    """
    return cache(classify_index)


@pytest.fixture(scope="session")
def brute_forced():
    """``brute_force`` memoised for the whole session.

    The wide oracle sweep fills it first and the wide digest reads it, so
    the timed sweep still runs the brute force itself.
    """
    return cache(brute_force)
