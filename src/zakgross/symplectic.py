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
applies on the coordinates (x_i.., z_i..) of the modes it touches. ACTIONS
holds what composing it needs, computed once from the block: the few
nonzero terms of each column that differs from the identity's, and of each
offset row that changes. AffineMap.then_ops composes a list of ops on one
_WorkingMap, which holds S by its columns and c as integer numerators over
one common denominator, and builds the frozen map's Fractions once, at the
end. A gate there costs one column sum for P and P_inv, two for SUM, CZ
and their inverses, and one negation for F and F_inv; an explicit matrix
is one dense product for S and one for c. then_affine composes one op the
same way on a copy. word_symplectic and the decompose round trip compose
through then_ops too.
An op's half-integer covariance shift enters through t_bar of its block;
the stand-alone shift t(S) and the exponent parity identity are references
in oracles.py.

Dense products of such matrices go through int_matmul, which multiplies in
float64 whenever a bound on the entries proves every partial sum exact, and
in Python ints otherwise; the matrices it returns are converted back to
Python ints wherever they are kept.
"""
from __future__ import annotations

import math
import numbers
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
FLOAT_EXACT = 2 ** 53  # every integer of at most this magnitude is a float64


def _to_int_object(mat) -> np.ndarray:
    out = np.array(mat, dtype=object)
    for i, val in enumerate(out.flat):  # row-major, so the first bad entry is named
        if type(val) is not int:
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                idx = tuple(int(k) for k in np.unravel_index(i, out.shape))
                raise NotInteger(f"entry {idx} is {val!r}, not an integer")
            out.flat[i] = int(val)
    return out


def _machine_ints(a):
    """An integer array as int64, or None if an entry does not fit in 64 bits."""
    try:
        return np.asarray(a).astype(np.int64)
    except OverflowError:
        return None


def int_matmul(a, b) -> np.ndarray:
    """a @ b of two integer arrays, exactly.

    With k the inner dimension and A, B the entries' largest magnitudes,
    the product runs in float64 (BLAS) when k A B <= FLOAT_EXACT, so every
    partial sum, in any order, is an integer a float64 holds exactly, and
    returns int64; otherwise it runs on Python ints and returns them.
    """
    wa, wb = _machine_ints(a), _machine_ints(b)
    if wa is not None and wb is not None:
        bound = [max(-int(w.min(initial=0)), int(w.max(initial=0))) for w in (wa, wb)]
        if wa.shape[-1] * bound[0] * bound[1] <= FLOAT_EXACT:
            return (wa.astype(np.float64) @ wb.astype(np.float64)).astype(np.int64)
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


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
        # Omega S: the row halves swapped, one negated
        prod = int_matmul(m.T, np.vstack([m[n:], -m[:n]]))
        om = symplectic_form(n).astype(prod.dtype)
        bad = np.argwhere(prod != om)  # row-major order
        if bad.size:
            idx = tuple(bad[0].tolist())
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
        return _trusted(int_matmul(self.mat, other.mat).astype(object))

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
# (x_i, x_j, z_i, z_j) of its pair (i, j); the displacements X and Z leave
# their mode's coordinates as they are.
BLOCKS = {
    "F": _block([[0, 1], [-1, 0]]),
    "F_inv": _block([[0, -1], [1, 0]]),
    "P": _block([[1, 0], [-1, 1]]),
    "P_inv": _block([[1, 0], [1, 1]]),
    "SUM": _block([[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
    "SUM_inv": _block([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]),
    "CZ": _block([[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [-1, 0, 0, 1]]),
    "CZ_inv": _block([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]),
    "X": _block([[1, 0], [0, 1]]),
    "Z": _block([[1, 0], [0, 1]]),
}

# A tag's own offset on (x_i, z_i) in units of ell, as (h, u) for d/2 times
# h plus u: P and P_inv shift z_i by +-d/2, X and Z shift x_i or z_i by one.
OWN_OFFSETS = {
    "P": ((0, 1), (0, 0)),
    "P_inv": ((0, -1), (0, 0)),
    "X": ((0, 0), (1, 0)),
    "Z": ((0, 0), (0, 1)),
}


def _nonzero(vec) -> tuple:
    return tuple((i, int(v)) for i, v in enumerate(vec) if v != 0)


def _column_terms(mat: np.ndarray) -> tuple:
    """For every column j of a block B that differs from the identity's,
    (j, first, rest) over its nonzero terms (i, B[i, j]), the term i = j
    first: composing with B sets S[:, j] to the sum of B[i, j] S[:, i] on
    the block's coordinates. In every generator block a column that keeps
    itself (B[j, j] = 1) adds only columns the block leaves as they are."""
    eye = np.eye(len(mat), dtype=int)
    terms = [(j, sorted(_nonzero(mat[:, j]), key=lambda t: t[0] != j))
             for j in range(len(mat)) if (mat[:, j] != eye[:, j]).any()]
    return tuple((j, first, tuple(rest)) for j, (first, *rest) in terms)


def _offset_terms(mat: np.ndarray, half, unit) -> tuple:
    """For every coordinate j of a block B whose offset composing changes,
    (j, ((i, B^{-1}[j, i]), ...), h_j, u_j): c_j becomes the sum of
    B^{-1}[j, i] c_i plus (d/2) h_j + u_j, where h is Omega^{-1} t_bar(B)
    plus the own offset's d/2 part `half` and u its integer part `unit`."""
    block = _trusted(mat)
    k, eye, inv, tb = block.n, np.eye(len(mat), dtype=int), block.inverse().mat, t_bar(block)
    h = np.concatenate([-tb[k:], tb[:k]]) + half
    u = np.zeros(len(mat), dtype=int) + unit
    return tuple((j, _nonzero(inv[j]), int(h[j]), int(u[j])) for j in range(len(mat))
                 if (inv[j] != eye[j]).any() or h[j] or u[j])


# each tag's (column terms, offset terms), computed once
ACTIONS = {name: (_column_terms(b.mat), _offset_terms(b.mat, *OWN_OFFSETS.get(name, (0, 0))))
           for name, b in BLOCKS.items()}


def _coords(gate: Gate, n: int) -> list:
    """Indices of (x_i.., z_i..) of the modes a gate touches in a 2n-vector;
    ValueError if one is >= n."""
    modes = gate.modes
    if max(modes) >= n:
        raise ValueError(f"gate {gate} touches mode >= n={n}")
    return [*modes, *[n + i for i in modes]]


def _displacement(op, n: int) -> tuple:
    """A displacement of 2n finite reals in units of ell, held exactly, as
    (integer numerators, common denominator). Anything else raises ValueError."""
    if not hasattr(op, "__iter__"):
        raise ValueError(f"an op is a Gate, an IntSymplectic or 2n reals, got {op!r}")
    c = [x.item() if isinstance(x, np.generic) else x for x in op]
    if len(c) != 2 * n:
        raise ValueError(f"displacement needs length {2 * n}, got {len(c)}")
    for i, x in enumerate(c):
        finite = isinstance(x, numbers.Rational) or isinstance(x, numbers.Real) and math.isfinite(x)
        if isinstance(x, bool) or not finite:
            raise ValueError(f"displacement entry {i} is {x!r}, not a finite real")
    fr = [Fraction(x) for x in c]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


def generator_symplectic(gate: Gate, params: CodeParams):
    """Dense (S, c) of a gate tag: its block embedded in the identity, its
    own offset in the zero 2n-vector."""
    coords = _coords(gate, params.n)
    m = IntSymplectic.identity(params.n).mat
    m[np.ix_(coords, coords)] = BLOCKS[gate.name].mat
    c = [Fraction(0)] * (2 * params.n)
    for i, h, u in zip(coords, *OWN_OFFSETS.get(gate.name, ((0, 0), (0, 0)))):
        c[i] = Fraction(params.d * h, 2) + u
    return _trusted(m), tuple(c)


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

        One _WorkingMap, made here from a copy of this map, takes one
        then_affine call per op and updates itself in place, so an op builds
        no new map and no Fractions, and a gate costs a few O(n) column sums.
        The returned map's S and Fractions are built once, at the end. This
        map is left as it is.
        """
        amap = _WorkingMap(self)
        for op in ops:
            amap = amap.then_affine(op)
        return amap.frozen()

    def then_affine(self, op) -> "AffineMap":
        """Compose with one op: a Gate, an IntSymplectic on all n modes, or
        a displacement by 2n reals in units of ell.

        An op is a block B on some coordinates (a gate's 2x2 or 4x4 block
        on its modes, a matrix on all 2n, a displacement none) plus its own
        offset b: S[:, coords] -> S[:, coords] B and
        c[coords] -> B^{-1} c[coords] + (d/2) Omega^{-1} t_bar(B) + b.
        The op's whole matrix is the identity off coords, so this is plain
        affine composition with it. A generator's terms come from ACTIONS:
        only the columns of B and rows of B^{-1} that differ from the
        identity's, with their nonzero entries. Displacement entries are
        held exactly as binary fractions; integer ones keep the lattice
        paths available, others restrict the state to float evaluation and
        sampling. A plain map copies S and returns a new frozen map; the
        _WorkingMap of then_ops updates itself and returns itself.
        """
        if isinstance(self, _WorkingMap):
            self.update(op)
            return self
        work = _WorkingMap(self)
        work.update(op)
        return work.frozen()

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


class _WorkingMap(AffineMap):
    """The one mutable map, inside AffineMap.then_ops and then_affine.

    It owns one copy of S, held by columns (the rows of a C-ordered S^T,
    so a column is contiguous), and c as integer numerators over one even
    denominator, raised only when a displacement needs it. update composes
    one op in place. S is a view of that copy and c builds its Fractions
    when read; frozen() returns both as a plain AffineMap, after which this
    map takes no more ops.
    """

    def __init__(self, amap: AffineMap):
        object.__setattr__(self, "params", amap.params)
        self._cols = np.array(amap.S.mat.T, order="C")
        self._den = math.lcm(2, *(x.denominator for x in amap.c))
        self._num = [x.numerator * (self._den // x.denominator) for x in amap.c]

    @property
    def S(self) -> IntSymplectic:
        return _trusted(self._cols.T)

    @property
    def c(self) -> tuple:
        return tuple(Fraction(v, self._den) for v in self._num)

    def frozen(self) -> AffineMap:
        return AffineMap(self.S, self.c, self.params)

    def update(self, op) -> None:
        """Compose with one op (see AffineMap.then_affine), in place."""
        n = self.params.n
        if isinstance(op, IntSymplectic):
            if op.n != n:
                raise ValueError(f"matrix acts on {op.n} modes, state has {n}")
            self._cols = int_matmul(op.mat.T, self._cols).astype(object)
            # c -> S^-1 c + (d/2) Omega^-1 t_bar(S), every row at once
            tb = t_bar(op)
            shift = np.concatenate([-tb[n:], tb[:n]]) * (self._den // 2 * self.params.d)
            num = int_matmul(op.inverse().mat, np.array(self._num, dtype=object)[:, None])
            self._num = (num[:, 0].astype(object) + shift).tolist()
            return
        if not isinstance(op, Gate):
            vals, q = _displacement(op, n)
            if self._den % q:
                scale = math.lcm(self._den, q) // self._den
                self._num = [v * scale for v in self._num]
                self._den *= scale
            scale = self._den // q
            self._num = [v + w * scale for v, w in zip(self._num, vals)]
            return
        cols, offs = ACTIONS[op.name]
        coords = _coords(op, n)
        w = self._cols
        moved = []
        for j, (i, v), rest in cols:
            if i == j and v == 1:  # a shear adds columns it keeps, in place
                col = w[coords[j]]
            else:  # F and F_inv swap columns: read both before either is written
                src = w[coords[i]]
                col = src.copy() if v == 1 else -src if v == -1 else v * src
                moved.append((j, col))
            for i, v in rest:
                other = w[coords[i]]
                if v == 1:
                    col += other
                elif v == -1:
                    col -= other
                else:
                    col += v * other
        for j, col in moved:
            w[coords[j]] = col
        num, den = self._num, self._den
        half = den // 2 * self.params.d
        new = []
        for _, terms, h, u in offs:
            total = h * half + u * den
            for i, v in terms:
                total += v * num[coords[i]]
            new.append(total)
        for (j, _, _, _), total in zip(offs, new):
            num[coords[j]] = total


def word_symplectic(gates, params: CodeParams) -> IntSymplectic:
    """S of a temporal gate word: S_tot = S_1 S_2 ... S_N, first gate leftmost."""
    return AffineMap.identity(params).then_ops(gates).S


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
        gate = Gate(name, modes)
        coords = _coords(gate, n)
        eye = np.eye(len(coords), dtype=int).astype(object)
        m[coords, :] = (eye + q * (BLOCKS[name].mat - eye)) @ m[coords, :]
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
