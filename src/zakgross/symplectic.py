"""Exact integer symplectic algebra and affine phase-space maps.

Vectors are ordered (x_1..x_n, z_1..z_n). The symplectic form is
Omega = [[0, I], [-I, 0]], and a gate U acts on displacement exponents
in the Heisenberg sense U^dag T(a) U = T(S a). All matrices are kept as
Python-int object arrays, exact at any magnitude. A matrix is checked once,
where it enters through the IntSymplectic constructor; all others are
symplectic by construction and are not checked again.

An op is a plain value, told apart by type: a Gate, an IntSymplectic on
all n modes, or 2n finite reals (a displacement in units of ell). Each
generator tag is written once, in BLOCKS: the small integer block it
applies on the coordinates (x_i.., z_i..) of the modes it touches, with its
inverse and covariance shift computed once beside it, in ACTIONS. Every op
is a block on some coordinates (an explicit matrix on all of them, a
displacement none), so AffineMap.then_affine, word_symplectic and decompose
compose by O(n) column or row operations. then_affine composes one op;
then_ops calls it once per op of a list, on working maps that own one
private copy of S and update it in place, and returns the last one frozen.
c is updated in integer numerators over one denominator, and only its
entries on the op's coordinates become new Fractions. An op's half-integer
covariance shift enters through t_bar of its block; the stand-alone shift
t(S) and the exponent parity identity are references in oracles.py.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qudit import CodeParams, Gate


class NotInteger(ValueError):
    """Raised when a matrix or vector has a non-integer entry."""


class NotSymplectic(ValueError):
    """Raised when S^T Omega S != Omega; the message names the first bad entry."""


class DecompositionFailed(RuntimeError):
    """Raised when a symplectic matrix cannot be reduced to a generator word."""


MAX_DECOMPOSE_WORD = 200_000


def _to_int_object(mat) -> np.ndarray:
    out = np.array(mat, dtype=object)
    for idx, val in np.ndenumerate(out):
        if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
            raise NotInteger(f"entry {idx} is {val!r}, not an integer")
        out[idx] = int(val)
    return out


def symplectic_form(n: int) -> np.ndarray:
    om = np.zeros((2 * n, 2 * n), dtype=object)
    for i in range(n):
        om[i, n + i] = 1
        om[n + i, i] = -1
    return om


@dataclass(frozen=True)
class IntSymplectic:
    """A 2n x 2n integer matrix S with S^T Omega S = Omega, checked here, held exactly."""

    mat: np.ndarray

    def __post_init__(self):
        m = _to_int_object(self.mat)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"need a square even-dimension matrix, got {m.shape}")
        object.__setattr__(self, "mat", m)
        n = m.shape[0] // 2
        om = symplectic_form(n)
        prod = m.T @ om @ m
        diff = prod - om
        for idx in np.ndindex(diff.shape):
            if diff[idx] != 0:
                raise NotSymplectic(
                    f"S^T Omega S differs from Omega first at entry {idx}: "
                    f"got {prod[idx]}, want {om[idx]}"
                )

    @property
    def n(self) -> int:
        return self.mat.shape[0] // 2

    @classmethod
    def identity(cls, n: int) -> "IntSymplectic":
        return _trusted(np.eye(2 * n, dtype=int).astype(object))

    def blocks(self):
        n = self.n
        m = self.mat
        return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]

    def inverse(self) -> "IntSymplectic":
        return _trusted(self.inverse_rows(range(2 * self.n)))

    def inverse_rows(self, rows) -> np.ndarray:
        """Rows `rows` of S^-1 = -Omega S^T Omega, exactly: row m < n is
        (S[n:, n + m], -S[:n, n + m]) and row n + m is (-S[n:, m], S[:n, m])."""
        n, rows = self.n, np.asarray(rows, dtype=np.intp)
        cols = self.mat[:, (rows + n) % (2 * n)].T
        out = np.hstack([cols[:, n:], -cols[:, :n]])
        out[rows >= n] *= -1
        return out

    def __matmul__(self, other: "IntSymplectic") -> "IntSymplectic":
        return _trusted(self.mat @ other.mat)

    def as_float(self) -> np.ndarray:
        return self.mat.astype(float)


def _trusted(mat: np.ndarray) -> IntSymplectic:
    """Wrap a Python-int object array that is symplectic by construction, unchecked."""
    s = object.__new__(IntSymplectic)
    object.__setattr__(s, "mat", mat)
    return s


# ---- the half-integer shift attached to a symplectic action -----------------

def t_bar(S: IntSymplectic) -> np.ndarray:
    """Integer 2n-vector (diag(A^T C), diag(B^T D)); only its parity matters."""
    a, b, c, d = S.blocks()
    top = (a * c).sum(axis=0)
    bot = (b * d).sum(axis=0)
    return np.concatenate([top, bot]).astype(object)


# ---- the generator table -----------------------------------------------------

def _block(rows) -> IntSymplectic:
    return _trusted(np.array(rows, dtype=object))


# Each tag's block B on the coordinates (x_i, z_i) of its mode, or
# (x_i, x_j, z_i, z_j) of its pair (i, j); the displacements X and Z have none.
BLOCKS = {
    "F": _block([[0, 1], [-1, 0]]),
    "F_inv": _block([[0, -1], [1, 0]]),
    "P": _block([[1, 0], [-1, 1]]),
    "P_inv": _block([[1, 0], [1, 1]]),
    "SUM": _block([[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
    "SUM_inv": _block([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]),
    "CZ": _block([[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [-1, 0, 0, 1]]),
    "CZ_inv": _block([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]),
    "X": None,
    "Z": None,
}


def _action(block: IntSymplectic) -> tuple:
    """(B, rows of B^{-1}, Omega^{-1} t_bar(B)): all that composing a block needs."""
    tb = [int(v) for v in t_bar(block)]
    k = block.n
    return block.mat, block.inverse().mat.tolist(), [-v for v in tb[k:]] + tb[:k]


# each tag's action, computed once
ACTIONS = {name: _action(b) for name, b in BLOCKS.items() if b is not None}


def _coords(modes, n: int) -> list:
    """Indices of (x_i.., z_i..) of the given modes in a 2n-vector."""
    return [*modes, *(n + i for i in modes)]


def _gate_args(gate: Gate, params: CodeParams) -> tuple:
    """A gate tag's block (None for X and Z), its own offset in units of ell
    as _offset gives it (None if zero; half-integer for P and P_inv) and the
    coordinates of the modes it touches."""
    n, d = params.n, params.d
    if max(gate.modes) >= n:
        raise ValueError(f"gate {gate} touches mode >= n={n}")
    own = {"P": ([0, d], 2), "P_inv": ([0, -d], 2),
           "X": ([1, 0], 1), "Z": ([0, 1], 1)}.get(gate.name)
    return BLOCKS[gate.name], own, _coords(gate.modes, n)


def _offset(c) -> tuple:
    """Offsets in units of ell (any exact numbers) as (integer numerators, common denominator)."""
    fr = [Fraction(x) for x in c]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


def _op_args(op, params: CodeParams) -> tuple:
    """_compose's (coords, action, offset) for one op: a Gate, an
    IntSymplectic on all n modes, or a displacement of 2n finite reals in
    units of ell. Anything else raises ValueError."""
    if isinstance(op, Gate):
        _, own, coords = _gate_args(op, params)
        return coords, ACTIONS.get(op.name), own
    if isinstance(op, IntSymplectic):
        if op.n != params.n:
            raise ValueError(f"matrix acts on {op.n} modes, state has {params.n}")
        return None, _action(op), None
    if not hasattr(op, "__iter__"):
        raise ValueError(f"an op is a Gate, an IntSymplectic or 2n reals, got {op!r}")
    c = [x.item() if isinstance(x, np.generic) else x for x in op]
    if len(c) != 2 * params.n:
        raise ValueError(f"displacement needs length {2 * params.n}, got {len(c)}")
    for i, x in enumerate(c):
        finite = isinstance(x, numbers.Rational) or isinstance(x, numbers.Real) and math.isfinite(x)
        if isinstance(x, bool) or not finite:
            raise ValueError(f"displacement entry {i} is {x!r}, not a finite real")
    return None, None, _offset(c)


def generator_symplectic(gate: Gate, params: CodeParams):
    """Dense (S, c) of a gate tag: its block embedded in the identity, its
    offset in the zero 2n-vector."""
    block, own, coords = _gate_args(gate, params)
    m = IntSymplectic.identity(params.n).mat
    if block is not None:
        m[np.ix_(coords, coords)] = block.mat
    vals, den = own or ((), 1)
    own = dict(zip(coords, vals))
    return _trusted(m), tuple(Fraction(own.get(i, 0), den) for i in range(2 * params.n))


# ---- affine phase-space map of a whole circuit -------------------------------

@dataclass(frozen=True)
class AffineMap:
    """Accumulated phase-space action of a gate word.

    Support pushes forward by eta -> S^{-1} eta + ell c, and evaluation
    pulls back: W_out(eta) = W_in(S (eta - ell c)). c is the whole push
    offset in units of ell: each op's own offset plus its covariance shift
    S^{-1} t(S) / ell = (d/2) Omega^{-1} t_bar(S), folded in once when the
    op is composed. c is an exact tuple of Fractions and stays half-integer
    for every word over the generator set.
    """

    S: IntSymplectic
    c: tuple
    params: CodeParams

    @classmethod
    def identity(cls, params: CodeParams) -> "AffineMap":
        return cls(IntSymplectic.identity(params.n), tuple([Fraction(0)] * (2 * params.n)), params)

    def then_ops(self, ops) -> "AffineMap":
        """Compose with a list of ops (see then_affine), first to last.

        Each op is one then_affine call, on a _WorkingMap that owns one
        private copy of S made here, so no op copies S again and a gate
        costs O(n). This map is left as it is.
        """
        amap = _WorkingMap(_trusted(self.S.mat.copy()), self.c, self.params)
        for op in ops:
            amap = amap.then_affine(op)
        return AffineMap(amap.S, amap.c, self.params)

    def then_affine(self, op) -> "AffineMap":
        """Compose with one op: a Gate, an IntSymplectic on all n modes, or
        a displacement by 2n reals in units of ell.

        An op is a block B on some coordinates (a gate's 2x2 or 4x4 block
        on its modes, a matrix on all 2n, a displacement none) plus its own
        offset b: S[:, coords] -> S[:, coords] B and
        c[coords] -> B^{-1} c[coords] + (d/2) Omega^{-1} t_bar(B) + b.
        The op's whole matrix is the identity off coords, so this is plain
        affine composition with it. A generator block's inverse and shift
        come from ACTIONS. Displacement entries are held exactly as binary
        fractions; integer ones keep the lattice paths available, others
        restrict the state to float evaluation and sampling. S is copied
        first unless this is a _WorkingMap of then_ops.
        """
        return _compose(self, *_op_args(op, self.params))

    # -- evaluation and transport helpers --

    def pullback(self, eta: np.ndarray) -> np.ndarray:
        """Map output-frame points (..., 2n) to input-frame points: S (eta - ell c)."""
        eta = np.asarray(eta, dtype=float)
        c = np.array([float(x) for x in self.c])
        return (eta - self.params.ell * c) @ self.S.as_float().T

    def push_float(self, eta: np.ndarray) -> np.ndarray:
        """Forward transport of points (..., 2n): S^{-1} eta + ell c."""
        eta = np.asarray(eta, dtype=float)
        c = np.array([float(x) for x in self.c])
        return eta @ self.S.inverse().as_float().T + self.params.ell * c

    def push_lattice_half(self, m2: np.ndarray, rows) -> np.ndarray:
        """Push support points given in units of ell/2 forward, exactly.

        Returns only the output coordinates listed in rows, shape
        (..., len(rows)). m2 holds integers; the result is integer when c is
        half-integer, and NotInteger is raised otherwise.
        """
        if not self.is_half_integer():
            raise NotInteger("affine offset is not half-integer; cannot use lattice path")
        rows = list(rows)
        cc = np.array([int(2 * self.c[r]) for r in rows], dtype=object)
        s_inv = self.S.inverse_rows(rows)
        return np.einsum("ij,...j->...i", s_inv, np.asarray(m2).astype(object)) + cc

    def is_half_integer(self) -> bool:
        return all((2 * x).denominator == 1 for x in self.c)


def _compose(amap: AffineMap, coords, action, offset) -> AffineMap:
    """amap followed by one op: an action (B, B^{-1}, Omega^{-1} t_bar(B))
    and an offset (integer numerators, denominator) on coords (None: all 2n).

    S[:, coords] <- S[:, coords] B, in place on a _WorkingMap's S and on a
    copy of any other (S itself is shared when there is no action), and
    c[coords] <- B^{-1} c[coords] + (d/2) Omega^{-1} t_bar(B) + offset, in
    integer numerators over one denominator; only the entries of c on
    coords become new Fractions.
    """
    params = amap.params
    coords = list(range(2 * params.n)) if coords is None else coords
    touched = [amap.c[i] for i in coords]
    # even, so den d / 2 is whole
    den = math.lcm(2, offset[1] if offset else 1, *(x.denominator for x in touched))
    num = [x.numerator * (den // x.denominator) for x in touched]
    mat = amap.S.mat
    if action is not None:
        block, inv, shift = action
        if not isinstance(amap, _WorkingMap):
            mat = mat.copy()
        mat[:, coords] = mat[:, coords] @ block
        half = den // 2 * params.d
        num = [sum(map(operator.mul, row, num)) + half * s for row, s in zip(inv, shift)]
    if offset is not None:
        vals, q = offset
        num = [v + w * (den // q) for v, w in zip(num, vals)]
    c = list(amap.c)
    for i, v in zip(coords, num):
        c[i] = Fraction(v, den)
    return type(amap)(_trusted(mat), tuple(c), params)


class _WorkingMap(AffineMap):
    """A map inside AffineMap.then_ops, the sole owner of its S: then_affine
    updates that S in place and returns another _WorkingMap on it. then_ops
    returns a plain AffineMap, so none of these leaves it."""


def word_symplectic(gates, params: CodeParams) -> IntSymplectic:
    """S of a temporal gate word: S_tot = S_1 S_2 ... S_N, first gate leftmost."""
    m = IntSymplectic.identity(params.n).mat
    for g in gates:
        block, _, coords = _gate_args(g, params)
        if block is not None:
            m[:, coords] = m[:, coords] @ block.mat
    return _trusted(m)


# ---- decomposition into generator words --------------------------------------

def decompose(S: IntSymplectic) -> list:
    """Return a temporal gate word whose accumulated S equals the input exactly.

    Reduces a working copy to the identity by left-multiplying generator
    blocks (integer row operations on the rows of the modes they touch); the
    inverses of the multipliers, in application order, form the word. Raises
    DecompositionFailed if the reduction stalls or the word grows past
    MAX_DECOMPOSE_WORD.
    """
    n = S.n
    m = S.mat.copy()
    mults = []  # multiplier tags, in application order

    def zr(r):
        return n + r

    def left(name, modes, q=1):
        # left mult by the tag's q-th power, I + q (B - I) on its rows: B itself
        # at q = 1, and exact at any q for the shears P and SUM, as (B - I)^2 = 0
        if q == 0:
            return
        coords = _coords(modes, n)
        eye = np.eye(len(coords), dtype=int).astype(object)
        m[coords, :] = (eye + q * (BLOCKS[name].mat - eye)) @ m[coords, :]
        gate = Gate(name, modes)
        mults.extend([gate if q > 0 else gate.inverse()] * abs(q))

    def upper_shear(r, q):
        # net left mult by S_F S_P^q S_F^{-1}: row X_r <- X_r + q Z_r
        if q == 0:
            return
        left("F_inv", (r,))
        left("P", (r,), q)
        left("F", (r,))

    def guard():
        if len(mults) > MAX_DECOMPOSE_WORD:
            raise DecompositionFailed(
                f"word exceeded {MAX_DECOMPOSE_WORD} tags during reduction"
            )

    for mode in range(n):
        cx, cz = mode, zr(mode)  # row X_r is row r, row Z_r is row zr(r)

        # -- step 1: column cx -> e_{X_mode} --
        # per-mode Euclid on (x, z) pairs in this column
        for r in range(mode, n):
            steps = 0
            while m[zr(r), cx] != 0:
                steps += 1
                if steps > 64 + 4 * (2 * n) ** 2:
                    raise DecompositionFailed("per-mode reduction stalled")
                x = m[r, cx]
                if x == 0:
                    left("F", (r,))
                    continue
                q = m[zr(r), cx] // x
                left("P", (r,), q)
                if m[zr(r), cx] != 0:
                    left("F", (r,))
                guard()
        # cross-mode gcd of the X entries into row X_mode
        for r in range(mode + 1, n):
            steps = 0
            while m[r, cx] != 0:
                steps += 1
                if steps > 64 + 4 * (2 * n) ** 2:
                    raise DecompositionFailed("cross-mode reduction stalled")
                if m[mode, cx] == 0:
                    left("SUM", (r, mode), -1)  # X_mode <- X_mode + X_r
                    continue
                q = m[r, cx] // m[mode, cx]
                left("SUM", (mode, r), q)  # X_r <- X_r - q X_mode
                if m[r, cx] != 0:
                    # swap roles: fold the remainder into X_mode
                    qq = m[mode, cx] // m[r, cx]
                    left("SUM", (r, mode), qq)
                guard()
        if m[mode, cx] == -1:
            left("F", (mode,))
            left("F", (mode,))  # F^2 negates both rows of the mode
        if m[mode, cx] != 1:
            raise DecompositionFailed(
                f"pivot at mode {mode} reduced to {m[mode, cx]}, expected +-1"
            )
        for r in range(n):
            if (r != mode and (m[r, cx] != 0 or m[zr(r), cx] != 0)) or (
                r == mode and m[zr(r), cx] != 0
            ):
                raise DecompositionFailed(f"column {cx} not reduced at mode {mode}")

        # -- step 2: column cz -> e_{Z_mode} --
        if m[zr(mode), cz] != 1:
            raise DecompositionFailed(
                f"symplectic pairing should force entry {(zr(mode), cz)} to 1, "
                f"got {m[zr(mode), cz]}"
            )
        for r in range(mode + 1, n):
            left("SUM", (r, mode), -int(m[zr(r), cz]))  # Z_r <- Z_r - v[Z_r] * Z_mode
            if m[r, cz] != 0:
                left("F", (r,))  # move the X entry into the Z slot
                left("SUM", (r, mode), -int(m[zr(r), cz]))
            guard()
        upper_shear(mode, -int(m[mode, cz]))
        guard()

    if not np.array_equal(m, np.eye(2 * n, dtype=int)):
        raise DecompositionFailed("reduction finished away from the identity")

    word = [g.inverse() for g in mults]
    # exact round-trip check before handing the word out
    if not np.array_equal(word_symplectic(word, CodeParams(3, n)).mat, S.mat):  # S is d-free
        raise DecompositionFailed("recomposed word does not reproduce the input")
    return word
