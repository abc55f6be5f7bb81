"""Every integer count, level or index, and the aligned weight a, is checked at the entry point that takes it.

A float, bool, string or None is refused with a ``ValueError`` that names the
argument, instead of being truncated to an integer or parsed from a string; a
numpy scalar gives the same result as the plain Python number.
"""

import math

import numpy as np
import pytest

from qshare.linalg import (
    check_density_matrix,
    check_pure_state,
    hermitian_eigensystem,
    partial_trace,
    reduced_density_matrix,
    schmidt_spectrum,
    swap_operator,
)
from qshare.measures import werner_concurrence, werner_eof, werner_fit
from qshare.optimize import OptimizationConfig, min_span_entanglement, min_span_entanglements, span_entanglement
from qshare.states import ResidueFamily, quadratic_residues, singlet_pair_reduced, singlet_state, w_state

FOUR_QUBITS = (2, 2, 2, 2)
RHO3 = singlet_pair_reduced(3)

# (argument name, call with the argument set to v); 3 is a valid value for every one.
INTEGER_ENTRY_POINTS = {
    "partial_trace-keep": ("keep", lambda v: partial_trace(np.eye(16) / 16, FOUR_QUBITS, (v,))),
    "partial_trace-dims": ("dims", lambda v: partial_trace(np.eye(6) / 6, (v, 2), (0,))),
    "reduced_density_matrix-keep": ("keep", lambda v: reduced_density_matrix(np.full(16, 0.25), FOUR_QUBITS, (v,))),
    "schmidt_spectrum-cut": ("cut", lambda v: schmidt_spectrum(np.full(16, 0.25), FOUR_QUBITS, (v,))),
    "check_pure_state-dims": ("dims", lambda v: check_pure_state(np.full(6, 1 / math.sqrt(6)), (v, 2))[0]),
    "check_density_matrix-dim": ("dim", lambda v: check_density_matrix(np.eye(3) / 3, v)),
    "swap_operator": ("d", swap_operator),
    "werner_fit": ("d", lambda v: [getattr(werner_fit(RHO3, v), f) for f in ("a_w", "b_w", "d", "residual")]),
    "werner_concurrence": ("d", lambda v: werner_concurrence(RHO3, v)),
    "werner_eof": ("d", lambda v: werner_eof(RHO3, v)),
    "quadratic_residues": ("p", lambda v: sorted(quadratic_residues(v))),
    "singlet_state": ("d", singlet_state),
    "singlet_pair_reduced": ("d", singlet_pair_reduced),
    "pair_state": ("j", lambda v: ResidueFamily.from_a(0.5).pair_state(v)),
    "w_state": ("n", w_state),
    "OptimizationConfig-restarts": ("restarts", lambda v: OptimizationConfig(restarts=v).restarts),
    "OptimizationConfig-seed": ("seed", lambda v: OptimizationConfig(seed=v).seed),
}

# (call with a set to v); 0.5 is a valid weight for every one.
WEIGHT_ENTRY_POINTS = {
    "ResidueFamily": lambda v: ResidueFamily.from_a(v).pair_basis(),
    "min_span_entanglement": lambda v: min_span_entanglement(v, OptimizationConfig(restarts=3)).restart_values,
    "min_span_entanglements": lambda v: min_span_entanglements([(v, OptimizationConfig(restarts=3))])[0].restart_values,
    "span_entanglement": lambda v: span_entanglement(np.eye(7)[0], v),
}


# dim=None is check_density_matrix's documented "any size".
NON_INTEGERS = [
    (entry, bad)
    for bad in (2.5, 3.0, True, "3", None)
    for entry in INTEGER_ENTRY_POINTS
    if not (bad is None and entry == "check_density_matrix-dim")
]


@pytest.mark.parametrize(("entry", "bad"), NON_INTEGERS, ids=[f"{e}-{b!r}" for e, b in NON_INTEGERS])
def test_integer_arguments_refuse_non_integers(entry, bad):
    name, call = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        call(bad)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_arguments_take_numpy_integers(entry):
    _, call = INTEGER_ENTRY_POINTS[entry]
    assert np.array_equal(call(np.int64(3)), call(3))


@pytest.mark.parametrize("entry", WEIGHT_ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["0.5", True, np.True_, None], ids=repr)
def test_weight_refuses_non_reals(entry, bad):
    with pytest.raises(ValueError, match=r"^a must be a real number"):
        WEIGHT_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", WEIGHT_ENTRY_POINTS)
def test_weight_takes_numpy_floats(entry):
    call = WEIGHT_ENTRY_POINTS[entry]
    assert np.array_equal(call(np.float64(0.5)), call(0.5))


def test_negative_zero_weight_is_stored_as_zero():
    family = ResidueFamily.from_a(-0.0)
    assert math.copysign(1.0, family.a) == 1.0
    assert family.pair_basis().tobytes() == ResidueFamily.from_a(0.0).pair_basis().tobytes()


@pytest.mark.parametrize(
    ("name", "call"),
    [
        ("rho", check_density_matrix),
        ("H", hermitian_eigensystem),
        ("rho", lambda m: partial_trace(m, (1,), (0,))),
    ],
    ids=["check_density_matrix", "hermitian_eigensystem", "partial_trace"],
)
@pytest.mark.parametrize("dtype", [float, complex])
def test_empty_matrix_is_refused_by_name(name, call, dtype):
    with pytest.raises(ValueError, match=rf"^{name} must be non-empty, got shape \(0, 0\)$"):
        call(np.zeros((0, 0), dtype))
