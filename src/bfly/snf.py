"""Exact integer linear algebra: Smith normal form and lattice utilities.

Results are dtype=object arrays of Python integers, so callers never see
overflow.  The elimination itself runs in int64 machine words while a
bound on each update shows it cannot overflow, and widens to Python
integers for the rest of the elimination when the bound fails, so its
output is exact at any size.  Matrix sizes in this library stay in the
low hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require

_WORD_BOUND = 1 << 62   # int64 entries stay below this, one bit to spare
_WIDE_INPUT = 1 << 31   # inputs with entries this large start as Python ints


def _obj(a) -> np.ndarray:
    arr = np.array(a, dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = S with U, V unimodular and S diagonal.

    ``uinv`` and ``vinv`` are the inverses of U and V; diagonal entries
    of S are nonnegative and satisfy the divisibility chain.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    uinv: np.ndarray
    vinv: np.ndarray

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.s.shape)
        return tuple(int(self.s[i, i]) for i in range(k))


def _absmax(x: np.ndarray) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _fits(qmax: int, *updates) -> bool:
    """Whether each dst += q (x) src, k terms per entry, stays in bound."""
    return all(
        k * qmax * _absmax(src) + _absmax(dst) < _WORD_BOUND
        for src, dst, k in updates
    )


def _smallest(a: np.ndarray) -> int:
    """Row-major index of the first entry of least nonzero size, or -1."""
    mag = np.abs(a).ravel()
    nonzero = np.flatnonzero(mag)
    return int(nonzero[np.argmin(mag[nonzero])]) if nonzero.size else -1


def smith_normal_form(a) -> SmithDecomposition:
    """Textbook elimination (Cohen, GTM 138, §2.4.4) with exact output.

    Each pivot's row sweep and column sweep is one rank-1 update, since the
    pivot row (column) does not change during its sweep.  The five arrays
    are int64 while every update provably stays below 2**62 and are widened
    to Python ints, once, before the first update that might not.
    """
    s = _obj(a)
    s = s.astype(np.int64) if _absmax(s) < _WIDE_INPUT else s.copy()
    m, n = s.shape
    u, uinv = np.eye(m, dtype=s.dtype), np.eye(m, dtype=s.dtype)
    v, vinv = np.eye(n, dtype=s.dtype), np.eye(n, dtype=s.dtype)

    def widen_unless_fits(qmax: int, *updates) -> None:
        nonlocal s, u, uinv, v, vinv
        if s.dtype != object and not _fits(qmax, *updates):
            s, u, uinv, v, vinv = (x.astype(object) for x in (s, u, uinv, v, vinv))

    def row_swap(i, j):
        s[[i, j], :] = s[[j, i], :]
        u[[i, j], :] = u[[j, i], :]
        uinv[:, [i, j]] = uinv[:, [j, i]]

    def col_swap(i, j):
        s[:, [i, j]] = s[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]
        vinv[[i, j], :] = vinv[[j, i], :]

    t = 0
    while t < min(m, n):
        # a pivot of minimal absolute value in the remaining block
        flat = _smallest(s[t:, t:])
        if flat < 0:
            break
        i, j = divmod(flat, n - t)
        row_swap(t, t + i)
        col_swap(t, t + j)
        while True:
            # row_i += q_i * row_t for every i > t
            q = -(s[t + 1:, t] // s[t, t])
            if q.any():
                widen_unless_fits(_absmax(q), (s[t], s[t + 1:], 1),
                                  (u[t], u[t + 1:], 1),
                                  (uinv[:, t + 1:], uinv[:, t], len(q)))
                q = q.astype(s.dtype, copy=False)
                s[t + 1:] += np.outer(q, s[t])
                u[t + 1:] += np.outer(q, u[t])
                uinv[:, t] -= uinv[:, t + 1:] @ q
            # col_j += q_j * col_t for every j > t
            q = -(s[t, t + 1:] // s[t, t])
            if q.any():
                widen_unless_fits(_absmax(q), (s[:, t], s[:, t + 1:], 1),
                                  (v[:, t], v[:, t + 1:], 1),
                                  (vinv[t + 1:], vinv[t], len(q)))
                q = q.astype(s.dtype, copy=False)
                s[:, t + 1:] += np.outer(s[:, t], q)
                v[:, t + 1:] += np.outer(v[:, t], q)
                vinv[t] -= q @ vinv[t + 1:]
            # the cross now holds the remainders mod the pivot
            if s[t + 1:, t].any() or s[t, t + 1:].any():
                # pivot changed size; re-select minimal entry in the cross
                old = abs(s[t, t])
                i = t + _smallest(s[t:, t])
                j = t + _smallest(s[t, t:])
                if abs(s[t, j]) < abs(s[i, t]):
                    i = t
                else:
                    j = t
                row_swap(t, i)
                col_swap(t, j)
                # remainders are smaller than the old pivot, so this ends
                require(abs(s[t, t]) < old, "Smith pivot did not shrink")
                continue
            # enforce divisibility against the rest of the block
            offenders = np.flatnonzero((s[t + 1:, t + 1:] % s[t, t] != 0).any(axis=1))
            if not offenders.size:
                break
            # row_t += row_o for the first row o holding a non-multiple
            o = t + 1 + int(offenders[0])
            widen_unless_fits(1, (s[o], s[t], 1), (u[o], u[t], 1),
                              (uinv[:, t], uinv[:, o], 1))
            s[t] += s[o]
            u[t] += u[o]
            uinv[:, o] -= uinv[:, t]
        if s[t, t] < 0:
            s[t] = -s[t]
            u[t] = -u[t]
            uinv[:, t] = -uinv[:, t]
        t += 1

    u, s, v, uinv, vinv = (x.astype(object) for x in (u, s, v, uinv, vinv))
    return SmithDecomposition(u=u, s=s, v=v, uinv=uinv, vinv=vinv)


def integer_kernel(a) -> np.ndarray:
    """Basis (columns) of {x : A x = 0} over the integers."""
    arr = _obj(a)
    dec = smith_normal_form(arr)
    n = arr.shape[1]
    k = min(arr.shape)
    cols = [j for j in range(n) if j >= k or dec.s[j, j] == 0]
    if not cols:
        return np.zeros((n, 0), dtype=object)
    return dec.v[:, cols]


def solve_integer(a, b, dec: SmithDecomposition | None = None):
    """One integer solution x of A x = b, or None; dec may be precomputed.

    b may also be a matrix; then x solves every column, or is None unless
    every column is solvable.
    """
    arr = _obj(a)
    rhs = np.array(b, dtype=object)
    columns = rhs if rhs.ndim > 1 else rhs[:, None]
    if dec is None:
        dec = smith_normal_form(arr)
    c = dec.u @ columns
    m, n = arr.shape
    k = min(m, n)
    d = np.diagonal(dec.s)
    zero = d == 0
    if c[k:].any() or c[:k][zero].any():
        return None
    d = np.where(zero, 1, d)[:, None]
    if (c[:k] % d).any():
        return None
    y = np.zeros((n, columns.shape[1]), dtype=object)
    y[:k] = c[:k] // d
    x = dec.v @ y
    return x if rhs.ndim > 1 else x.reshape(-1)


def column_lattice_basis(a) -> np.ndarray:
    """A full set of independent generators for the column span of A."""
    arr = _obj(a)
    dec = smith_normal_form(arr)
    m = arr.shape[0]
    k = min(arr.shape)
    # columns of Uinv scaled by the invariant factors span the lattice
    cols = []
    for i in range(k):
        if dec.s[i, i] != 0:
            cols.append(dec.uinv[:, i] * dec.s[i, i])
    if not cols:
        return np.zeros((m, 0), dtype=object)
    return np.stack(cols, axis=1)


def in_column_lattice(a, b) -> bool:
    """True iff b is an integer combination of the columns of A."""
    return solve_integer(a, b) is not None
