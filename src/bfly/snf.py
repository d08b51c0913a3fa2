"""Exact integer linear algebra: Smith normal form and lattice utilities.

Results are dtype=object arrays of Python integers, so callers never see
overflow.  The elimination itself runs in int64 machine words while a
running bound on each array shows no update can overflow, and widens to
Python integers for the rest of the elimination when the bound fails, so
its output is exact at any size.  Each pivot's sweeps touch only the rows
and columns whose cross entry is nonzero, and a caller names the
transforms it reads, so the work follows the nonzeros of the sparse
coboundary matrices this library factors (a few hundred rows at most).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require

_WORD_BOUND = 1 << 62   # int64 entries stay below this, one bit to spare
_WIDE_INPUT = 1 << 31   # inputs with entries this large start as Python ints
_TRANSFORMS = "u v uinv vinv"


def _obj(a) -> np.ndarray:
    arr = np.array(a, dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = S with U, V unimodular and S diagonal.

    ``uinv`` and ``vinv`` are the inverses of U and V; diagonal entries
    of S are nonnegative and satisfy the divisibility chain.  A transform
    the caller did not ask ``smith_normal_form`` to track is None.
    """

    u: np.ndarray | None
    s: np.ndarray
    v: np.ndarray | None
    uinv: np.ndarray | None
    vinv: np.ndarray | None

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.s.shape)
        return tuple(int(self.s[i, i]) for i in range(k))


def _absmax(x: np.ndarray) -> int:
    return int(np.abs(x).max()) if x.size else 0


def _grown(bound: int, qmax: int, k: int) -> int:
    """A bound on |x| after x_i += q_1 x_j1 + ... + q_k x_jk in one array.

    ``bound`` bounds |x| before the update and |q| <= qmax.
    """
    return bound * (1 + k * qmax)


def _smallest(a: np.ndarray, g) -> int:
    """Row-major index of the first entry of least nonzero size, or -1.

    g divides every entry, so an entry of size g, if any, is least.
    """
    mag = np.abs(a).ravel()
    if not mag.size:
        return -1
    first = int((mag == g).argmax())
    if mag[first] == g:
        return first
    nonzero = mag.nonzero()[0]
    return int(nonzero[mag[nonzero].argmin()]) if nonzero.size else -1


_ROWS, _COLS = ("u", "uinv"), ("v", "vinv")


def smith_normal_form(a, track: str = _TRANSFORMS, /) -> SmithDecomposition:
    """Textbook elimination (Cohen, GTM 138, §2.4.4) with exact output.

    ``track`` names the transforms to compute, from "u v uinv vinv"; the
    others are None, and U, S, V, U^-1 and V^-1 are the same whichever
    are tracked.  Each pivot's row sweep and column sweep is one rank-1
    update on the rows (columns) whose cross entry is nonzero, since the
    pivot row (column) does not change during its sweep, and S changes
    only inside the active block, whose complement is already zero.
    Every entry of the active block is a multiple of the last pivot g, so
    at a pivot of size g the sweeps clear the cross and leave only
    multiples of it: neither the remainders nor divisibility is scanned.
    The arrays are int64 while a running bound on each array shows that
    every update stays below 2**62; when a bound would reach it, the
    array's exact maximum replaces the bound, and if that fails too the
    arrays are widened to Python ints, once, for the rest.
    """
    s = _obj(a)
    smax = _absmax(s)
    s = s.astype(np.int64) if smax < _WIDE_INPUT else s.copy()
    m, n = s.shape
    # U and U^-1 follow the row operations on S, V and V^-1 the column
    # operations.  V and U^-1 are held transposed, so that each pair
    # follows with X[rows] += q (x) X[t] and Y[t] -= q @ Y[rows].
    x = {name: np.eye(m if name in _ROWS else n, dtype=s.dtype) for name in track.split()}
    # an upper bound on |entry| of each array
    bound = {"s": smax} | dict.fromkeys(x, 1)

    def room(qmax: int, *updates) -> None:
        """Widen unless each (array name, k) update keeps its bound."""
        nonlocal s
        if s.dtype == object:
            return
        for name, k in updates:
            if name not in bound:
                continue
            grown = _grown(bound[name], qmax, k)
            if grown >= _WORD_BOUND:
                grown = _grown(_absmax(x[name] if name in x else s), qmax, k)
            if grown >= _WORD_BOUND:
                s = s.astype(object)
                for key in x:
                    x[key] = x[key].astype(object)
                return
            bound[name] = grown

    def follow(pair, rows, src: int, q) -> None:
        fwd, inv = pair
        if fwd in x:
            x[fwd][rows] += q[:, None] * x[fwd][src]
        if inv in x:
            x[inv][src] -= q @ x[inv][rows]

    def swap(pair, i: int, j: int) -> None:
        for name in pair:
            if name in x:
                x[name][[i, j]] = x[name][[j, i]]

    def row_swap(i, j):
        if i != j:
            s[[i, j], t:] = s[[j, i], t:]
            swap(_ROWS, i, j)

    def col_swap(i, j):
        if i != j:
            s[t:, [i, j]] = s[t:, [j, i]]
            swap(_COLS, i, j)

    def sweep_rows():
        # row_i += q_i * row_t for every i > t with q_i != 0
        q = -(s[t + 1:, t] // s[t, t])
        rows = q.nonzero()[0]
        if not rows.size:
            return
        q, rows = q[rows], rows + (t + 1)
        cols = t + s[t, t:].nonzero()[0]
        room(_absmax(q), ("s", 1), ("u", 1), ("uinv", len(rows)))
        q = q.astype(s.dtype, copy=False)
        s[rows[:, None], cols] += q[:, None] * s[t, cols]
        follow(_ROWS, rows, t, q)

    def sweep_cols():
        # col_j += q_j * col_t for every j > t with q_j != 0
        q = -(s[t, t + 1:] // s[t, t])
        cols = q.nonzero()[0]
        if not cols.size:
            return
        q, cols = q[cols], cols + (t + 1)
        rows = t + s[t:, t].nonzero()[0]
        room(_absmax(q), ("s", 1), ("v", 1), ("vinv", len(cols)))
        q = q.astype(s.dtype, copy=False)
        s[rows[:, None], cols] += s[rows, t, None] * q
        follow(_COLS, cols, t, q)

    t, g = 0, 1     # g divides every entry of the active block s[t:, t:]
    while t < min(m, n):
        # a pivot of minimal absolute value in the remaining block
        flat = _smallest(s[t:, t:], g)
        if flat < 0:
            break
        i, j = divmod(flat, n - t)
        row_swap(t, t + i)
        col_swap(t, t + j)
        while True:
            sweep_rows()
            sweep_cols()
            if abs(s[t, t]) == g:
                # the cross held multiples of g, so it is clear now
                break
            # the cross now holds the remainders mod the pivot
            if s[t + 1:, t].any() or s[t, t + 1:].any():
                # pivot changed size; re-select minimal entry in the cross
                old = abs(s[t, t])
                i = t + _smallest(s[t:, t], g)
                j = t + _smallest(s[t, t:], g)
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
            offenders = (s[t + 1:, t + 1:] % s[t, t] != 0).any(axis=1).nonzero()[0]
            if not offenders.size:
                break
            # row_t += row_o for the first row o holding a non-multiple
            o = t + 1 + int(offenders[0])
            room(1, ("s", 1), ("u", 1), ("uinv", 1))
            s[t, t:] += s[o, t:]
            follow(_ROWS, [t], o, np.ones(1, dtype=s.dtype))
        if s[t, t] < 0:
            # the cross is clear, so row t holds only the pivot
            s[t, t] = -s[t, t]
            for name in _ROWS:
                if name in x:
                    x[name][t] = -x[name][t]
        t, g = t + 1, s[t, t]

    out = dict.fromkeys(_TRANSFORMS.split())
    for name, held in x.items():
        out[name] = held.T.astype(object) if name in ("v", "uinv") else held.astype(object)
    return SmithDecomposition(s=s.astype(object), **out)


def integer_kernel(a) -> np.ndarray:
    """Basis (columns) of {x : A x = 0} over the integers."""
    arr = _obj(a)
    dec = smith_normal_form(arr, "v")
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
        dec = smith_normal_form(arr, "u v")
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
    dec = smith_normal_form(arr, "uinv")
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
