"""Exact integer linear algebra: Smith normal form and lattice utilities.

Decompositions are dtype=object arrays of Python integers, so callers never
see overflow.  The elimination itself runs in int64 machine words while a
running bound on each array shows no update can overflow, and widens to
Python integers for the rest of the elimination when the bound fails, so
its output is exact at any size.  Integer arrays go in as they are, and
``matmul`` multiplies by the same rule: in int64 when a bound proves the
product fits, in Python integers otherwise.  Each pivot's sweeps touch only
the rows and columns whose cross entry is nonzero, and a caller names the
transforms it reads, down to the rows of V, so the work follows the
nonzeros of the sparse coboundary matrices this library factors (2401 x
2744 for degree 3 over a base of order 8).  The pivot step costs a few
numpy calls: U rides beside S as one array [S | U], the pivot is looked
for in the pivot row before the whole block, and at a pivot of least size
the column sweep just clears the pivot row of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require

_WORD_BOUND = 1 << 62   # int64 entries stay below this, one bit to spare
_WIDE_INPUT = 1 << 31   # inputs with entries this large start as Python ints
_TRANSFORMS = "u v uinv vinv"


def _integers(a) -> np.ndarray:
    """a as a matrix: integer and object arrays as they are, anything else
    as Python ints."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuO"):
        a = np.array(a, dtype=object)
    return a.reshape(-1, 1) if a.ndim == 1 else a


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
    """max |entry| as a Python int, for int64, uint64 or object entries."""
    if not x.size:
        return 0
    if x.dtype == np.int64:
        # |-2**63| wraps to -2**63 in int64, whose bits read 2**63 unsigned
        return int(np.abs(x).view(np.uint64).max())
    return max(int(x.max()), -int(x.min()))


def _words(x: np.ndarray) -> np.ndarray:
    """x in int64 if every entry fits, else in Python ints."""
    if np.can_cast(x.dtype, np.int64):
        return x.astype(np.int64, copy=False)
    x = x.astype(object, copy=False)
    try:
        return x.astype(np.int64)
    except OverflowError:   # a Python int past int64
        return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B exactly, for integer or object matrices.

    Each entry is a sum of k products of size at most max|A| max|B|, so
    the product runs in int64 when max|A| max|B| k < 2**62 proves it
    exact, the bound the elimination keeps, and in Python ints otherwise.
    The result is int64 or object accordingly.
    """
    a, b = _words(a), _words(b)
    bound = max(_absmax(a), 1) * max(_absmax(b), 1) * max(a.shape[1], 1)
    if a.dtype == b.dtype == np.int64 and bound < _WORD_BOUND:
        return a @ b
    return a.astype(object) @ b.astype(object)


def _grown(bound: int, qmax: int, k: int) -> int:
    """A bound on |x| after x_i += q_1 x_j1 + ... + q_k x_jk in one array.

    ``bound`` bounds |x| before the update and |q| <= qmax.
    """
    return bound * (1 + k * qmax)


def _smallest(a: np.ndarray, g) -> int:
    """Row-major index of the first entry of least nonzero size, or -1.

    g divides every entry, so an entry of size g, if any, is least.  It is
    looked for in bands of rows that double from the top, so a block whose
    first such entry lies near the top is not read whole.
    """
    width = a.shape[1] if a.ndim == 2 else 1
    top, rows = 0, 8
    while True:
        mag = np.abs(a[top:top + rows]).ravel()
        first = int((mag == g).argmax()) if mag.size else 0
        if mag.size and mag[first] == g:
            return top * width + first
        if top + rows >= len(a):
            break
        top, rows = top + rows, 2 * rows
    if top:
        mag = np.abs(a).ravel()
    nonzero = mag.nonzero()[0]
    return int(nonzero[mag[nonzero].argmin()]) if nonzero.size else -1


def smith_normal_form(
    a, track: str = _TRANSFORMS, v_rows: int | None = None, /
) -> SmithDecomposition:
    """Textbook elimination (Cohen, GTM 138, §2.4.4) with exact output.

    ``track`` names the transforms to compute, from "u v uinv vinv"; the
    others are None, and U, S, V, U^-1 and V^-1 are the same whichever are
    tracked.  With ``v_rows``, V is only its first v_rows rows: a column
    operation acts on each row of V alone, so they are the same rows as in
    the whole V.  Integer arrays are read as they are, anything else as
    Python ints.  U is held right of S as one array [S | U], so each row
    sweep, row swap and sign flip is one operation on both.  Each pivot's
    row sweep and column sweep is one rank-1 update on the rows (columns)
    whose cross entry is nonzero, since the pivot row (column) does not
    change during its sweep, and S changes only inside the active block,
    whose complement is already zero.  Every entry of the active block is a
    multiple of the last pivot g, so the pivot, the row-major first entry of
    least size, is the first entry of size g in row t whenever row t has
    one; only otherwise is the block searched, by bands of rows.  At a pivot
    of size g the row sweep clears column t, so the column sweep on S just
    clears row t, and only V and V^-1 follow it; neither the remainders nor
    divisibility is scanned.  The arrays are int64 while a running bound on
    each array ([S | U] shares one) shows that every update stays below
    2**62; when a bound would reach it, the exact maximum of the array's
    live rows replaces the bound, and if that fails too the arrays are
    widened to Python ints, once, for the rest.
    """
    s = _integers(a)
    smax = _absmax(s)
    s = s.astype(np.int64 if smax < _WIDE_INPUT else object)
    m, n = s.shape
    tracked = track.split()
    if "u" in tracked:
        s = np.concatenate([s, np.eye(m, dtype=s.dtype)], axis=1)
    # x["su"] is [S | U].  U^-1 follows the row operations on S too, and V
    # and V^-1 follow the column operations.  V and U^-1 are held
    # transposed, so that each follows with X[rows] += q (x) X[t] and
    # Y[t] -= q @ Y[rows]; V^T keeps only the columns of the rows of V
    # asked for.
    sizes = {"uinv": (m, m), "v": (n, n if v_rows is None else v_rows), "vinv": (n, n)}
    x = {"su": s} | {
        name: np.eye(*sizes[name], dtype=s.dtype) for name in sizes if name in tracked
    }
    follow_cols = "v" in x or "vinv" in x
    # an upper bound on |entry| of each array
    bound = dict.fromkeys(x, 1) | {"su": max(smax, 1)}

    def room(qmax: int, *updates) -> bool:
        """Widen unless each (array name, k) update keeps its bound.

        Returns True if it widened the arrays.  Every update from pivot t
        on reads and writes rows t and below of each array only, so rows
        above t are final and the bounds leave them out; in [S | U] the
        columns left of t in those rows are zero too.
        """
        if x["su"].dtype == object:
            return False
        for name, k in updates:
            if name not in bound:
                continue
            grown = _grown(bound[name], qmax, k)
            if grown >= _WORD_BOUND:
                live = x[name][t:, t:] if name == "su" else x[name][t:]
                grown = _grown(_absmax(live), qmax, k)
            if grown >= _WORD_BOUND:
                for key in x:
                    x[key] = x[key].astype(object)
                return True
            bound[name] = grown
        return False

    def row_swap(i: int, names=("su", "uinv")) -> None:
        # rows t and i >= t of S are zero left of column t
        if i != t:
            for name in names:
                if name in x:
                    a = x[name]
                    row = a[i].copy()
                    a[i], a[t] = a[t], row

    def col_swap(j: int) -> None:
        if j != t:
            s = x["su"]
            col = s[t:, j].copy()
            s[t:, j], s[t:, t] = s[t:, t], col
            row_swap(j, ("v", "vinv"))

    def sweep_rows() -> None:
        # row_i += q_i * row_t for every i > t with s[i, t] != 0
        s = x["su"]
        rows = t + 1 + s[t + 1:, t].nonzero()[0]
        if not rows.size:
            return
        q = -(s[rows, t] // s[t, t])
        if room(max(abs(q).tolist()), ("su", 1), ("uinv", len(rows))):
            s, q = x["su"], q.astype(object)
        cols = t + s[t, t:].nonzero()[0]
        s[rows[:, None], cols] += q[:, None] * s[t, cols]
        if "uinv" in x:
            x["uinv"][t] -= q @ x["uinv"][rows]

    def sweep_cols(cleared: bool) -> None:
        # col_j += q_j * col_t for every j > t with s[t, j] != 0; once the
        # row sweep has cleared column t, this only clears row t of S
        s = x["su"]
        if cleared and not follow_cols:
            s[t, t + 1:n] = 0
            return
        cols = t + 1 + s[t, t + 1:n].nonzero()[0]
        if not cols.size:
            return
        q = -(s[t, cols] // s[t, t])
        if room(max(abs(q).tolist()), ("su", int(not cleared)), ("v", 1), ("vinv", len(cols))):
            s, q = x["su"], q.astype(object)
        if cleared:
            s[t, cols] = 0
        else:
            rows = t + s[t:, t].nonzero()[0]
            s[rows[:, None], cols] += s[rows, t, None] * q
        if "v" in x:
            # row t of V^T stays sparse for most of an elimination
            v, nz = x["v"], x["v"][t].nonzero()[0]
            v[cols[:, None], nz] += q[:, None] * v[t, nz]
        if "vinv" in x:
            x["vinv"][t] -= q @ x["vinv"][cols]

    t, g = 0, 1     # g divides every entry of the active block s[t:, t:]
    while t < min(m, n):
        s = x["su"]
        mag = np.abs(s[t, t:n])
        i, j = t, t + int((mag == g).argmax())
        if mag[j - t] != g:
            # no entry of size g in row t: the least in the whole block
            flat = _smallest(s[t:, t:n], g)
            if flat < 0:
                break
            i, j = divmod(flat, n - t)
            i, j = t + i, t + j
        row_swap(i)
        col_swap(j)
        while True:
            sweep_rows()
            s = x["su"]
            if abs(s[t, t]) == g:
                # column t held multiples of g, so the row sweep cleared it
                sweep_cols(True)
                break
            sweep_cols(False)
            # the cross now holds the remainders mod the pivot
            s = x["su"]
            if s[t + 1:, t].any() or s[t, t + 1:n].any():
                # pivot changed size; re-select minimal entry in the cross
                old = abs(s[t, t])
                i = t + _smallest(s[t:, t], g)
                j = t + _smallest(s[t, t:n], g)
                if abs(s[t, j]) < abs(s[i, t]):
                    i = t
                else:
                    j = t
                row_swap(i)
                col_swap(j)
                # remainders are smaller than the old pivot, so this ends
                require(abs(s[t, t]) < old, "Smith pivot did not shrink")
                continue
            # enforce divisibility against the rest of the block
            offenders = (s[t + 1:, t + 1:n] % s[t, t] != 0).any(axis=1).nonzero()[0]
            if not offenders.size:
                break
            # row_t += row_o for the first row o holding a non-multiple
            o = t + 1 + int(offenders[0])
            room(1, ("su", 1), ("uinv", 1))
            s = x["su"]
            s[t, t:] += s[o, t:]
            if "uinv" in x:
                x["uinv"][o] -= x["uinv"][t]
        s = x["su"]
        if s[t, t] < 0:
            # the cross is clear, so row t of S holds only the pivot
            s[t] = -s[t]
            if "uinv" in x:
                x["uinv"][t] = -x["uinv"][t]
        t, g = t + 1, s[t, t]

    su = x.pop("su")
    x["s"] = su[:, :n]
    if "u" in tracked:
        x["u"] = su[:, n:]
    for name in ("v", "uinv"):
        if name in x:
            x[name] = x[name].T
    out = dict.fromkeys(_TRANSFORMS.split()) | {k: v.astype(object) for k, v in x.items()}
    return SmithDecomposition(**out)


def integer_kernel(a, rows: int | None = None) -> np.ndarray:
    """Basis (columns) of {x : A x = 0} over the integers.

    With ``rows``, only the first rows of the basis: the elimination then
    carries only those rows of V.
    """
    arr = _integers(a)
    dec = smith_normal_form(arr, "v", rows)
    n = arr.shape[1]
    k = min(arr.shape)
    return dec.v[:, [j for j in range(n) if j >= k or dec.s[j, j] == 0]]


def solve_integer(a, b, dec: SmithDecomposition | None = None):
    """One integer solution x of A x = b, or None; dec may be precomputed.

    b may also be a matrix; then x solves every column, or is None unless
    every column is solvable.
    """
    rhs = _integers(b)
    if dec is None:
        dec = smith_normal_form(a, "u v")
    y = solve_diagonal(dec, rhs)
    if y is None:
        return None
    x = matmul(dec.v, y)
    return x if np.ndim(b) > 1 else x.reshape(-1)


def solve_diagonal(dec: SmithDecomposition, b) -> np.ndarray | None:
    """One integer y with S y = U b, column by column, or None.

    Then x = V y solves A x = b.  Where V is the identity, as in the
    factorisation ``column_lattice_basis`` returns, y itself is x, and the
    product with V is skipped.  y is int64 where U b is.
    """
    c = matmul(dec.u, _integers(b))
    m, n = dec.s.shape
    k = min(m, n)
    d = np.diagonal(dec.s)
    zero = d == 0
    if c[k:].any() or c[:k][zero].any():
        return None
    d = _words(np.where(zero, 1, d))[:, None]
    if (c[:k] % d).any():
        return None
    y = np.zeros((n, c.shape[1]), dtype=c.dtype)
    y[:k] = c[:k] // d
    return y


def column_lattice_basis(a) -> tuple[np.ndarray, SmithDecomposition]:
    """Independent generators B of the column span of A, with B factored.

    The columns of U^-1 scaled by the nonzero invariant factors of A span
    its column lattice, so B = U^-1 S' for the columns S' of S that hold
    them, and U @ B @ I = S' is a Smith normal form of B.
    """
    dec = smith_normal_form(a, "u uinv")
    rank = int(np.count_nonzero(np.diagonal(dec.s)))
    s = dec.s[:, :rank]     # the nonzero invariant factors come first
    eye = np.eye(rank, dtype=object)
    basis = dec.uinv[:, :rank] * np.diagonal(s)
    return basis, SmithDecomposition(u=dec.u, s=s, v=eye, uinv=dec.uinv, vinv=eye)
