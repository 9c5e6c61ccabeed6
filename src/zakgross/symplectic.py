"""Exact integer symplectic algebra and affine phase-space maps.

Vectors are ordered (x_1..x_n, z_1..z_n). The symplectic form is
Omega = [[0, I], [-I, 0]], and a gate U acts on displacement exponents
in the Heisenberg sense U^dag T(a) U = T(S a). All matrices are kept as
Python-int object arrays so that composition, inversion, and the word
decomposition below are exact at any magnitude. Each op's half-integer
covariance shift enters through t_bar, folded into AffineMap.c when the op is
composed; the stand-alone shift t(S) and the exponent parity identity it
rests on are references in oracles.py.
"""
from __future__ import annotations

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
    arr = np.asarray(mat)
    if arr.dtype == object:
        out = arr.copy()
        for idx, val in np.ndenumerate(out):
            if not isinstance(val, (int, np.integer)):
                raise NotInteger(f"entry {idx} is {val!r}, not an integer")
            out[idx] = int(val)
        return out
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(object)
    rounded = np.round(arr)
    bad = np.argwhere(np.abs(arr - rounded) > 1e-9)
    if bad.size:
        i, j = bad[0]
        raise NotInteger(f"entry ({i},{j}) = {arr[i, j]} is not an integer")
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = int(rounded[idx])
    return out


def symplectic_form(n: int) -> np.ndarray:
    om = np.zeros((2 * n, 2 * n), dtype=object)
    for i in range(n):
        om[i, n + i] = 1
        om[n + i, i] = -1
    return om


@dataclass(frozen=True)
class IntSymplectic:
    """A 2n x 2n integer matrix S with S^T Omega S = Omega, held exactly."""

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
        return cls(np.eye(2 * n, dtype=int))

    def blocks(self):
        n = self.n
        m = self.mat
        return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]

    def inverse(self) -> "IntSymplectic":
        a, b, c, d = self.blocks()
        top = np.hstack([d.T, -b.T])
        bot = np.hstack([-c.T, a.T])
        return IntSymplectic(np.vstack([top, bot]))

    def __matmul__(self, other: "IntSymplectic") -> "IntSymplectic":
        return IntSymplectic(self.mat @ other.mat)

    def as_float(self) -> np.ndarray:
        return self.mat.astype(float)


# ---- the half-integer shift attached to a symplectic action -----------------

def t_bar(S: IntSymplectic) -> np.ndarray:
    """Integer 2n-vector (diag(A^T C), diag(B^T D)); only its parity matters."""
    a, b, c, d = S.blocks()
    top = (a * c).sum(axis=0)
    bot = (b * d).sum(axis=0)
    return np.concatenate([top, bot]).astype(object)


# ---- generator tags ----------------------------------------------------------

def generator_symplectic(gate: Gate, params: CodeParams):
    """(S, c) for a gate tag: the exponent action S and the lattice offset c.

    c is a tuple of Fractions in units of ell; for P it is half-integer.
    """
    n = params.n
    d = params.d
    if max(gate.modes) >= n:
        raise ValueError(f"gate {gate} touches mode >= n={n}")
    m = np.eye(2 * n, dtype=int).astype(object)
    c = [Fraction(0)] * (2 * n)
    name = gate.name
    if name in ("F", "F_inv"):
        (i,) = gate.modes
        s = 1 if name == "F" else -1
        m[i, i] = 0
        m[n + i, n + i] = 0
        m[i, n + i] = s
        m[n + i, i] = -s
    elif name in ("P", "P_inv"):
        (i,) = gate.modes
        s = 1 if name == "P" else -1
        m[n + i, i] = -s
        c[n + i] = Fraction(s * d, 2)
    elif name in ("SUM", "SUM_inv"):
        i, j = gate.modes
        s = 1 if name == "SUM" else -1
        m[j, i] = -s
        m[n + i, n + j] = s
    elif name in ("CZ", "CZ_inv"):
        i, j = gate.modes
        s = 1 if name == "CZ" else -1
        m[n + i, j] = -s
        m[n + j, i] = -s
    elif name == "X":
        (i,) = gate.modes
        c[i] = Fraction(1)
    elif name == "Z":
        (i,) = gate.modes
        c[n + i] = Fraction(1)
    else:  # pragma: no cover
        raise ValueError(f"unknown gate {name}")
    return IntSymplectic(m), tuple(c)


# ---- affine phase-space map of a whole circuit -------------------------------

def _mat_frac_vec(mat: np.ndarray, vec) -> tuple:
    out = []
    for row in mat:
        acc = Fraction(0)
        for mij, vj in zip(row, vec):
            if mij:
                acc += int(mij) * vj
        out.append(acc)
    return tuple(out)


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

    def then(self, gate: Gate) -> "AffineMap":
        sg, cg = generator_symplectic(gate, self.params)
        return self.then_affine(sg, cg)

    def then_displacement(self, c_vec) -> "AffineMap":
        """Append a displacement by c in units of ell.

        c entries may be any reals (held exactly as binary fractions);
        integer entries keep the lattice paths available, non-integers
        restrict the state to float evaluation and sampling.
        """
        n = self.params.n
        c = tuple(
            Fraction(x.item() if hasattr(x, "item") else x)
            for x in np.asarray(c_vec).ravel()
        )
        if len(c) != 2 * n:
            raise ValueError(f"displacement needs length {2 * n}, got {len(c)}")
        return self.then_affine(IntSymplectic.identity(n), c)

    def then_affine(self, sg: IntSymplectic, cg) -> "AffineMap":
        """Compose with a further op (sg, cg): plain affine composition.

        S -> S sg and c -> sg^{-1} c + cg + (d/2) Omega^{-1} t_bar(sg).
        """
        n = self.params.n
        half_d = Fraction(self.params.d, 2)
        tb = t_bar(sg)
        own = np.concatenate([-tb[n:], tb[:n]])  # Omega^{-1} t_bar; Omega^{-1} = -Omega
        moved = _mat_frac_vec(sg.inverse().mat, self.c)
        c_new = tuple(m + g + half_d * int(o) for m, g, o in zip(moved, cg, own))
        return AffineMap(self.S @ sg, c_new, self.params)

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
        s_inv = self.S.inverse().mat[rows]
        return np.einsum("ij,...j->...i", s_inv, np.asarray(m2).astype(object)) + cc

    def is_half_integer(self) -> bool:
        return all((2 * x).denominator == 1 for x in self.c)


def word_symplectic(gates, params: CodeParams) -> IntSymplectic:
    """S of a temporal gate word: S_tot = S_1 S_2 ... S_N, first gate leftmost."""
    s = IntSymplectic.identity(params.n)
    for g in gates:
        sg, _ = generator_symplectic(g, params)
        s = s @ sg
    return s


# ---- decomposition into generator words --------------------------------------

def decompose(S: IntSymplectic) -> list:
    """Return a temporal gate word whose accumulated S equals the input exactly.

    Reduces a working copy to the identity by left-multiplying generator
    matrices (integer row operations); the inverses of the multipliers, in
    application order, form the word. Raises DecompositionFailed if the
    reduction stalls or the word grows past MAX_DECOMPOSE_WORD.
    """
    n = S.n
    m = S.mat.copy()
    mults = []  # multiplier tags, in application order

    def xr(r):
        return r

    def zr(r):
        return n + r

    def op_fourier(r):
        # left mult by S_F(r): row X_r <- row Z_r, row Z_r <- -row X_r
        old_x = m[xr(r), :].copy()
        m[xr(r), :] = m[zr(r), :]
        m[zr(r), :] = -old_x
        mults.append(Gate("F", (r,)))

    def op_phase(r, q):
        # left mult by S_P(r)^q: row Z_r <- row Z_r - q * row X_r
        if q == 0:
            return
        m[zr(r), :] = m[zr(r), :] - q * m[xr(r), :]
        tag = "P" if q > 0 else "P_inv"
        mults.extend([Gate(tag, (r,))] * abs(q))

    def op_sum(i, j, q):
        # left mult by S_SUM(i,j)^q: X_j <- X_j - q X_i, Z_i <- Z_i + q Z_j
        if q == 0:
            return
        m[xr(j), :] = m[xr(j), :] - q * m[xr(i), :]
        m[zr(i), :] = m[zr(i), :] + q * m[zr(j), :]
        tag = "SUM" if q > 0 else "SUM_inv"
        mults.extend([Gate(tag, (i, j))] * abs(q))

    def op_upper_shear(r, q):
        # net left mult by S_F S_P^q S_F^{-1}: row X_r <- X_r + q Z_r
        if q == 0:
            return
        op_fourier_inv(r)
        op_phase(r, q)
        op_fourier(r)

    def op_fourier_inv(r):
        old_x = m[xr(r), :].copy()
        m[xr(r), :] = -m[zr(r), :]
        m[zr(r), :] = old_x
        mults.append(Gate("F_inv", (r,)))

    def guard():
        if len(mults) > MAX_DECOMPOSE_WORD:
            raise DecompositionFailed(
                f"word exceeded {MAX_DECOMPOSE_WORD} tags during reduction"
            )

    for mode in range(n):
        cx, cz = xr(mode), zr(mode)

        # -- step 1: column cx -> e_{X_mode} --
        # per-mode Euclid on (x, z) pairs in this column
        for r in range(mode, n):
            steps = 0
            while m[zr(r), cx] != 0:
                steps += 1
                if steps > 64 + 4 * (2 * n) ** 2:
                    raise DecompositionFailed("per-mode reduction stalled")
                x = m[xr(r), cx]
                if x == 0:
                    op_fourier(r)
                    continue
                q = m[zr(r), cx] // x
                op_phase(r, q)
                if m[zr(r), cx] != 0:
                    op_fourier(r)
                guard()
        # cross-mode gcd of the X entries into row X_mode
        for r in range(mode + 1, n):
            steps = 0
            while m[xr(r), cx] != 0:
                steps += 1
                if steps > 64 + 4 * (2 * n) ** 2:
                    raise DecompositionFailed("cross-mode reduction stalled")
                if m[xr(mode), cx] == 0:
                    op_sum(r, mode, -1)  # X_mode <- X_mode + X_r
                    continue
                q = m[xr(r), cx] // m[xr(mode), cx]
                op_sum(mode, r, q)  # X_r <- X_r - q X_mode
                if m[xr(r), cx] != 0:
                    # swap roles: fold the remainder into X_mode
                    qq = m[xr(mode), cx] // m[xr(r), cx]
                    op_sum(r, mode, qq)
                guard()
        if m[xr(mode), cx] == -1:
            op_fourier(mode)
            op_fourier(mode)  # F^2 negates both rows of the mode
        if m[xr(mode), cx] != 1:
            raise DecompositionFailed(
                f"pivot at mode {mode} reduced to {m[xr(mode), cx]}, expected +-1"
            )
        for r in range(n):
            if (r != mode and (m[xr(r), cx] != 0 or m[zr(r), cx] != 0)) or (
                r == mode and m[zr(r), cx] != 0
            ):
                raise DecompositionFailed(f"column {cx} not reduced at mode {mode}")

        # -- step 2: column cz -> e_{Z_mode} --
        assert m[zr(mode), cz] == 1, "symplectic pairing should force this entry to 1"
        for r in range(mode + 1, n):
            op_sum(r, mode, -int(m[zr(r), cz]))  # Z_r <- Z_r - v[Z_r] * Z_mode
            if m[xr(r), cz] != 0:
                op_fourier(r)  # move the X entry into the Z slot
                op_sum(r, mode, -int(m[zr(r), cz]))
            guard()
        op_upper_shear(mode, -int(m[xr(mode), cz]))
        guard()

    ident = np.eye(2 * n, dtype=object)
    if not np.array_equal(m.astype(object), ident):
        raise DecompositionFailed("reduction finished away from the identity")

    word = [g.inverse() for g in mults]
    # exact round-trip check before handing the word out
    params = CodeParams(3, n)  # S does not depend on d
    if not np.array_equal(word_symplectic(word, params).mat, S.mat):
        raise DecompositionFailed("recomposed word does not reproduce the input")
    return word
