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

from .linalg import check_integer, check_pure_state, check_real, swap_operator
from .measures import Decomposition, shannon_entropy

__all__ = [
    "MODULUS",
    "OMEGA",
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
# Primitive 7th root of unity: the pair phase multiplies pair state j by OMEGA^j.
OMEGA = complex(np.exp(2j * np.pi / MODULUS))


def quadratic_residues(p):
    """Nonzero squares mod an odd prime: {x^2 mod p : x = 1 .. p-1}."""
    p = check_integer(p, "p", 3)
    if p % 2 == 0 or any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
        raise ValueError(f"p must be an odd prime, got {p}")
    return frozenset((x * x) % p for x in range(1, p))


def _perm_sign(perm):
    """Sign of a permutation by inversion count."""
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1.0 if inversions % 2 else 1.0


def singlet_state(d):
    """Totally antisymmetric state of d d-level particles, unit norm.

    The amplitude of |i1 ... id> is the permutation sign over sqrt(d!), and
    zero whenever a label repeats.  Full construction is capped at d = 7
    (d^d amplitudes); the pair marginals for larger d come from
    :func:`singlet_pair_reduced` instead.
    """
    d = check_integer(d, "d", 2, 7)
    amp = np.zeros(d**d)
    scale = 1.0 / math.sqrt(math.factorial(d))
    strides = [d ** (d - 1 - k) for k in range(d)]
    for perm in permutations(range(d)):
        idx = sum(p * s for p, s in zip(perm, strides))
        amp[idx] = _perm_sign(perm) * scale
    return amp


def singlet_pair_reduced(d):
    """Closed-form pair marginal of the antisymmetric state: (I - F) / (d(d-1)).

    Valid for any d >= 2 without building the full collective state.  Only F's ones and the diagonal are written
    into F's map, so only their pages are resident; every entry, zeros' signs included, is the one (0 - F + I) /
    (d(d-1)) gives.  Its F is the only one a ``singlet`` maps, and ``werner_fit`` validates the result once.
    """
    d = check_integer(d, "d", 2)
    rho, rows, scale = swap_operator(d), np.arange(d * d), d * (d - 1)
    rho[rows, (rows % d) * d + rows // d] = -1.0 / scale
    # The diagonal is assigned, not added to: += reads each diagonal-only page before writing it, two faults.
    diagonal = np.full(d * d, 1.0 / scale)
    diagonal[:: d + 1] = 0.0  # |ii><ii|, where F's one cancels I's
    rho.flat[:: d * d + 1] = diagonal
    return rho


@dataclass(frozen=True)
class ResidueFamily:
    """One-parameter family of three seven-level particles.

    Each label j contributes an aligned term a|j,j,j> plus terms
    b|j+k, j+2k, j+4k> for k in the residue set, all label arithmetic mod 7.
    Normalization a^2 + 3 b^2 = 1 fixes b >= 0, so the member is a function
    of ``a`` alone.

    The residue set is a class attribute, not a field: a subclass may
    override it, as the tests do to show that a corrupted set breaks the
    family's symmetry checks.
    """

    a: float
    residues = tuple(sorted(quadratic_residues(MODULUS)))

    def __post_init__(self):
        object.__setattr__(self, "a", check_real(self.a, "a", 0, 1))

    @classmethod
    def from_a(cls, a):
        """Family member for aligned weight ``a`` in [0, 1]."""
        return cls(a)

    @property
    def b(self) -> float:
        """Weight of each residue term, sqrt((1 - a^2) / 3)."""
        return math.sqrt((1.0 - self.a * self.a) / 3.0)

    @property
    def pair_state_entanglement(self) -> float:
        """V(a) = H(a^2, b^2, b^2, b^2), the entanglement of every pair state.

        Pair state j has amplitude a at (j, j) and b at (j + k, j + 3k), all in
        distinct rows and columns, so that is its Schmidt spectrum.  Each pair
        state is a basis vertex of the span, so V(a) bounds the span minimum
        from above.  Summed in ascending order, as an eigensolver returns a
        spectrum, it equals the optimizer objective's value at a vertex to the bit.
        """
        a2, b2 = self.a * self.a, self.b * self.b
        return shannon_entropy(np.sort([a2, b2, b2, b2]))

    def state(self) -> np.ndarray:
        """The 343-amplitude member sum_l |l> |pair_l> / sqrt(7), unit norm."""
        return (self.pair_basis() / math.sqrt(MODULUS)).reshape(-1)

    def pair_state(self, j) -> np.ndarray:
        """Pair ket tied to level j of the traced-out particle: row j of :meth:`pair_basis`."""
        return self.pair_basis()[check_integer(j, "j", 0, MODULUS - 1)]

    def pair_basis(self) -> np.ndarray:
        """The seven real pair states as rows, shape (7, 49).

        Pair state j has amplitude a at (j, j) and b at (j + k, j + 3k) for
        each residue k, labels mod 7.  The rows are mutually orthonormal, so
        they span the subspace the pair marginal lives in.
        """
        j, k = np.arange(MODULUS)[:, None], np.array(self.residues)
        basis = np.zeros((MODULUS, MODULUS, MODULUS))
        basis[j, j, j] = self.a
        basis[j, (j + k) % MODULUS, (j + 3 * k) % MODULUS] = self.b
        return basis.reshape(MODULUS, -1)

    def pair_density(self) -> np.ndarray:
        """Pair marginal of the member: the uniform mixture of the pair states."""
        basis = self.pair_basis()
        return basis.T @ basis / MODULUS

    def span_state(self, coeffs) -> np.ndarray:
        """Unit-norm pair state sum_j c_j |pair_j> for coefficients on the span, or one per row of a (R, 7) stack."""
        return _span_coefficients(coeffs) @ self.pair_basis()


def _span_coefficients(coeffs):
    """``coeffs`` validated as 7 unit-norm span coefficients, or a (R, 7) stack of them as rows."""
    if (coeffs := np.asarray(coeffs)).ndim not in (1, 2) or coeffs.shape[-1] != MODULUS:
        raise ValueError(f"need {MODULUS} span coefficients, got shape {coeffs.shape}")
    return check_pure_state(coeffs, (MODULUS,), name="span coefficient vector")[0]


def gauge_fix(coeffs):
    """Remove the global phase of a vector, or of each row of a stack: first coefficient above 1e-12 made real, >= 0.

    Real input stays real and a NaN row stays NaN; a zero row raises ``ValueError``.
    """
    c = np.asarray(coeffs)
    rows = c.reshape(-1, c.shape[-1]).astype(float if np.isrealobj(c) else complex)
    leads = ~(np.abs(rows) <= 1e-12)  # NaN fails every comparison: it leads, so its row stays NaN
    if not leads.any(axis=1).all():
        raise ValueError("cannot gauge-fix a zero vector")
    lead = rows[np.arange(len(rows)), np.argmax(leads, axis=1)]
    return (rows * (lead.conjugate() / np.abs(lead))[:, None]).reshape(c.shape)


@dataclass(frozen=True, eq=False)
class SymmetryOps:
    """Local unitaries generating the orbit that decomposes the pair marginal.

    ``pair_phase`` multiplies pair state j by ``OMEGA``^j and ``pair_shift``
    maps pair state j to pair state j+1 (mod 7); both act locally on the two
    particles, so they preserve entanglement across the pair cut.
    """

    pair_phase: np.ndarray  # 49x49 diagonal, |j, k> -> OMEGA^(5j + 3k) |j, k>
    pair_shift: np.ndarray  # 49x49, |j, k> -> |j+1, k+1> (mod 7)


def symmetry_operators() -> SymmetryOps:
    """Build the pair symmetry unitaries for the family."""
    levels = np.arange(MODULUS)
    powers = OMEGA ** levels
    shift = np.zeros((MODULUS, MODULUS), dtype=complex)
    shift[(levels + 1) % MODULUS, levels] = 1.0
    # Exponents reduced mod 7 keep the entries exact roots of unity.
    pair_phase = np.kron(np.diag(powers[(5 * levels) % MODULUS]), np.diag(powers[(3 * levels) % MODULUS]))
    pair_shift = np.kron(shift, shift)
    return SymmetryOps(pair_phase=pair_phase, pair_shift=pair_shift)


def orbit_decomposition(coeffs, family: ResidueFamily) -> Decomposition:
    """Decompose the pair marginal through the symmetry orbit of one span state.

    The 49 elements pair_shift^p pair_phase^m |seed> each carry weight 1/49; their mixture reproduces
    ``family.pair_density()`` and every element has the seed's entanglement, because the orbit operators are local
    unitaries.  As pair_phase multiplies pair state j by OMEGA^j and pair_shift maps it to pair state j+1, element
    (m, p) has the seed's span coefficients times OMEGA^(mj), rolled by p.  The seed is validated once, the 49 rolls
    are one index gather, and one product maps them onto the pair basis: about 70 us a call.
    """
    coeffs = _span_coefficients(np.asarray(coeffs, dtype=complex))
    levels = np.arange(MODULUS)
    phased = coeffs * OMEGA ** (np.outer(levels, levels) % MODULUS)  # row m
    rolled = phased[:, (levels - levels[:, None]) % MODULUS]  # [m, p, j] = phased[m, (j - p) mod 7]: np.roll by p
    return Decomposition(weights=np.full(49, 1.0 / 49.0), states=rolled.reshape(49, MODULUS) @ family.pair_basis())


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
    n = check_integer(n, "n", 2)
    amp = np.zeros(2**n)
    amp[[2 ** (n - 1 - i) for i in range(n)]] = 1.0 / math.sqrt(n)
    return amp
