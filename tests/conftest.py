"""Shared test settings and fixtures.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples and the suite stays deterministic.
"""

import dataclasses

import pytest

import qshare.optimize

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def lowered_peak_solve(monkeypatch):
    """Make every multistart solve report 1e-9 below its value.

    A scan still traces the same crossing, since its seed at a = 1/2 is a
    corrector solve, while the solve that certifies its peak lies more than the
    solver's value tolerance (``qshare.optimize._VALUE_TOLERANCE``, 1e-10
    relative) below the vertex value there.
    """
    solve = qshare.optimize.min_span_entanglement

    def lowered(a, config):
        result = solve(a, config)
        return dataclasses.replace(result, value=result.value - 1e-9)

    monkeypatch.setattr(qshare.optimize, "min_span_entanglement", lowered)


@pytest.fixture
def gapless_branch(monkeypatch):
    """A synthetic mixed branch whose g = M - V = -(1 + a) never reaches 0 on [0, 1].

    The corrector's seed at a = 1/2 lies on the branch too, so no traced
    value exceeds the vertex value.  Returns the weights a at which the Newton
    corrector is called, in order.
    """
    weights = []

    def gap(a):
        return -(1.0 + a)

    def synthetic(x, a):
        weights.append(a)
        return x, gap(a), True

    monkeypatch.setattr(qshare.optimize, "_continue_mixed_branch", synthetic)
    return weights
