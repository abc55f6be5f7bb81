"""State and operator constructors.

Covers the fully antisymmetric collective states of d d-level particles with
their closed-form pair marginals, the one-parameter three-particle family on
seven-level systems built from the quadratic residues mod 7, the local
unitaries whose orbit decomposes that family's pair state, and the n-qubit
single-excitation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .linalg import check_pure_state, swap_operator
from .measures import Decomposition

__all__ = [
    "MODULUS",
    "quadratic_residues",
    "singlet_state",
    "singlet_pair_reduced",
    "ResidueFamily",
    "gauge_fix",
    "SymmetryOps",
    "symmetry_operators",
    "orbit_decomposition",
    "cyclic_permute",
    "w_state",
]

# The three-particle family lives on seven-level systems; 7 is a prime of the
# form 4N - 1, which is what makes its residue set work out.
MODULUS = 7


def quadratic_residues(p):
    """Nonzero squares mod an odd prime: {x^2 mod p : x = 1 .. p-1}."""
    p = int(p)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
        raise ValueError(f"p must be an odd prime, got {p}")
    return frozenset((x * x) % p for x in range(1, p))


def _perm_sign(perm):
    """Sign of a permutation by inversion count."""
    inversions = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inversions += 1
    return -1.0 if inversions % 2 else 1.0


def singlet_state(d):
    """Totally antisymmetric state of d d-level particles, unit norm.

    The amplitude of |i1 ... id> is the permutation sign over sqrt(d!), and
    zero whenever a label repeats.  Full construction is capped at d = 7
    (d^d amplitudes); the pair marginals for larger d come from
    :func:`singlet_pair_reduced` instead.
    """
    d = int(d)
    if not 2 <= d <= 7:
        raise ValueError(f"full construction supports 2 <= d <= 7, got {d}")
    amp = np.zeros(d**d, dtype=complex)
    scale = 1.0 / math.sqrt(math.factorial(d))
    strides = [d ** (d - 1 - k) for k in range(d)]
    for perm in permutations(range(d)):
        idx = sum(p * s for p, s in zip(perm, strides))
        amp[idx] = _perm_sign(perm) * scale
    return amp


def singlet_pair_reduced(d):
    """Closed-form pair marginal of the antisymmetric state: (I - F) / (d(d-1)).

    Valid for any d >= 2 without building the full collective state.
    """
    d = int(d)
    if d < 2:
        raise ValueError("d must be at least 2")
    return (np.identity(d * d) - swap_operator(d)) / (d * (d - 1))


def _flat3(i, j, k):
    return (i % MODULUS) * 49 + (j % MODULUS) * 7 + (k % MODULUS)


def _flat2(i, j):
    return (i % MODULUS) * 7 + (j % MODULUS)


@dataclass(frozen=True)
class ResidueFamily:
    """One-parameter family of three seven-level particles.

    Each label j contributes an aligned term a|j,j,j> plus terms
    b|j+k, j+2k, j+4k> for k in the residue set, all label arithmetic mod 7.
    Normalization requires a^2 + 3 b^2 = 1, so the member is fixed by ``a``
    alone; use :meth:`from_a`.

    Direct construction accepts any three distinct nonzero residues, which is
    deliberate: the verification suite uses it to demonstrate that a corrupted
    residue set breaks the family's symmetry checks.
    """

    a: float
    b: float
    residues: tuple[int, ...] = (1, 2, 4)

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0 or self.b < 0.0:
            raise ValueError(f"weights out of range: a={self.a}, b={self.b}")
        if abs(self.a * self.a + 3.0 * self.b * self.b - 1.0) > 1e-12:
            raise ValueError("weights must satisfy a^2 + 3 b^2 = 1")
        res = tuple(int(k) for k in self.residues)
        if len(res) != 3 or len(set(res)) != 3 or not all(1 <= k <= 6 for k in res):
            raise ValueError(f"residues must be three distinct labels in 1..6, got {res}")
        object.__setattr__(self, "residues", res)

    @classmethod
    def from_a(cls, a):
        """Family member for aligned weight ``a`` in [0, 1]."""
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {a}")
        b = math.sqrt(max(0.0, 1.0 - a * a) / 3.0)
        return cls(a=a, b=b, residues=tuple(sorted(quadratic_residues(MODULUS))))

    def state(self) -> np.ndarray:
        """The 343-amplitude three-particle member, unit norm."""
        amp = np.zeros(MODULUS**3, dtype=complex)
        w_a = self.a / math.sqrt(MODULUS)
        w_b = self.b / math.sqrt(MODULUS)
        for j in range(MODULUS):
            amp[_flat3(j, j, j)] += w_a
            for k in self.residues:
                amp[_flat3(j + k, j + 2 * k, j + 4 * k)] += w_b
        return amp

    def pair_state(self, j) -> np.ndarray:
        """Pair ket tied to level j of the traced-out particle, 49 amplitudes.

        The seven pair states are mutually orthonormal, so together they span
        the subspace the pair marginal lives in.
        """
        j = int(j)
        if not 0 <= j < MODULUS:
            raise ValueError(f"level must lie in 0..6, got {j}")
        amp = np.zeros(MODULUS**2, dtype=complex)
        amp[_flat2(j, j)] += self.a
        for k in self.residues:
            amp[_flat2(j + k, j + 3 * k)] += self.b
        return amp

    def pair_basis(self) -> np.ndarray:
        """All seven pair states stacked as rows, shape (7, 49)."""
        return np.stack([self.pair_state(j) for j in range(MODULUS)])

    def pair_density(self) -> np.ndarray:
        """Pair marginal of the member: the uniform mixture of the pair states."""
        basis = self.pair_basis()
        return np.einsum("ja,jb->ab", basis, basis.conj()) / MODULUS

    def span_state(self, coeffs) -> np.ndarray:
        """Unit-norm pair state sum_j c_j |pair_j> for coefficients on the span."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (MODULUS,):
            raise ValueError(f"need {MODULUS} span coefficients, got shape {coeffs.shape}")
        if abs(np.linalg.norm(coeffs) - 1.0) > 1e-10:
            raise ValueError("span coefficients must be unit norm")
        return coeffs @ self.pair_basis()


def gauge_fix(coeffs, *, tol=1e-12):
    """Remove the global phase: first non-negligible coefficient real and >= 0."""
    c = np.asarray(coeffs, dtype=complex).copy()
    nonzero = np.flatnonzero(np.abs(c) > tol)
    if nonzero.size == 0:
        raise ValueError("cannot gauge-fix a zero vector")
    lead = c[nonzero[0]]
    return c * (lead.conjugate() / abs(lead))


@dataclass(frozen=True, eq=False)
class SymmetryOps:
    """Local unitaries generating the orbit that decomposes the pair marginal.

    ``pair_phase`` multiplies pair state j by omega^j and ``pair_shift`` maps
    pair state j to pair state j+1 (mod 7); both act locally on the two
    particles, so they preserve entanglement across the pair cut.
    """

    phase: np.ndarray  # 7x7 diagonal, |j> -> omega^j |j>
    shift: np.ndarray  # 7x7 cyclic,   |j> -> |j+1 mod 7>
    pair_phase: np.ndarray  # 49x49, phase^5 on the left particle, phase^3 on the right
    pair_shift: np.ndarray  # 49x49, shift on both particles
    omega: complex


def symmetry_operators() -> SymmetryOps:
    """Build the single-particle and pair symmetry unitaries for the family."""
    omega = np.exp(2j * np.pi / MODULUS)
    powers = omega ** np.arange(MODULUS)
    levels = np.arange(MODULUS)
    phase = np.diag(powers)
    shift = np.zeros((MODULUS, MODULUS), dtype=complex)
    shift[(levels + 1) % MODULUS, levels] = 1.0
    # Exponents reduced mod 7 keep the entries exact roots of unity.
    pair_phase = np.kron(np.diag(powers[(5 * levels) % MODULUS]), np.diag(powers[(3 * levels) % MODULUS]))
    pair_shift = np.kron(shift, shift)
    return SymmetryOps(phase=phase, shift=shift, pair_phase=pair_phase, pair_shift=pair_shift, omega=complex(omega))


def orbit_decomposition(coeffs, family: ResidueFamily) -> Decomposition:
    """Decompose the pair marginal through the symmetry orbit of one span state.

    The 49 elements pair_shift^p pair_phase^m |seed> each carry weight 1/49;
    their mixture reproduces ``family.pair_density()`` and every element has
    the seed's entanglement, because the orbit operators are local unitaries.
    """
    ops = symmetry_operators()
    seed = family.span_state(coeffs)
    states = np.empty((49, seed.size), dtype=complex)
    phased = seed
    for m in range(MODULUS):
        shifted = phased
        for p in range(MODULUS):
            states[MODULUS * m + p] = shifted
            shifted = ops.pair_shift @ shifted
        phased = ops.pair_phase @ phased
    weights = np.full(49, 1.0 / 49.0)
    return Decomposition(weights=weights, states=states)


def cyclic_permute(psi, dims):
    """Relabel three equal particles cyclically: |i,j,k> amplitude moves to |k,i,j>."""
    psi, dims = check_pure_state(psi, dims)
    if psi.ndim != 1:
        raise ValueError("state must be a flat amplitude vector")
    if len(dims) != 3 or len(set(dims)) != 1:
        raise ValueError(f"need three equal-dimension particles, got dims {dims}")
    d = dims[0]
    return np.ascontiguousarray(psi.reshape(d, d, d).transpose(2, 0, 1)).reshape(-1)


def w_state(n):
    """Uniform superposition of the n single-excitation kets of n qubits."""
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    amp = np.zeros(2**n, dtype=complex)
    amp[[2 ** (n - 1 - i) for i in range(n)]] = 1.0 / math.sqrt(n)
    return amp
