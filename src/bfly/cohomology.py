"""Bar-resolution cohomology of finite modules via integer linear algebra.

Normalized cochains are used throughout; coefficients are handled through
an invariant-factor decomposition of the abelian group, which turns the
cocycle and coboundary conditions into integer congruence systems solved
by Smith normal form.  A brute-force enumerator cross-checks the solver
on small systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .actions import CModule
from .errors import LawViolation, NotACocycle, SizeCap, require
from .groups import FiniteGroup, _group
from .snf import (
    SmithDecomposition,
    _words,
    column_lattice_basis,
    integer_kernel,
    matmul,
    smith_normal_form,
    solve_diagonal,
    solve_integer,
)

BRUTE_FORCE_CAP = 1 << 20
_SOLVER_UNKNOWN_CAP = 4096


def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return _group(table, name or f"Z{n}")


@dataclass(frozen=True)
class CyclicDecomposition:
    """B ~= Z_{d1} x ... x Z_{dk} with an explicit isomorphism."""

    factors: tuple[int, ...]
    to_vec: np.ndarray      # (|B|, k) coordinates of each element
    from_vec: np.ndarray    # shape factors: the element with each coordinate tuple


@lru_cache(maxsize=None)
def _decompose_cached(table_bytes: bytes, order: int) -> CyclicDecomposition:
    """Split off cyclic summands of B, the largest first.

    Each step takes the least x of greatest order among the elements whose
    cyclic group meets the span of the earlier ones only in 0 (its first
    multiple in the span is ord(x) x).  An element of greatest order in
    B/span generates a direct summand, so every choice extends to an
    isomorphism, and the result is the lexicographically least isomorphism
    Z_{d1} x ... x Z_{dk} -> B (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, on finite abelian groups).
    """
    table = np.frombuffer(table_bytes, dtype=np.int64).reshape(order, order)
    if not np.array_equal(table, table.T):
        raise LawViolation("no cyclic decomposition found (group not abelian?)")
    multiples = [np.zeros(order, dtype=np.int64), np.arange(order)]
    while multiples[-1].any():
        multiples.append(table[multiples[-1], multiples[1]])
    multiples = np.stack(multiples)                 # [m, x] = m x, m up to the exponent
    orders = np.argmax(multiples[1:] == 0, axis=0) + 1
    span = np.arange(order) == 0
    factors, gens = (), ()
    while not span.all():
        first = np.argmax(span[multiples[1:]], axis=0) + 1
        x = int(np.argmax(np.where(first == orders, orders, 0)))
        factors, gens = (int(orders[x]),) + factors, (x,) + gens
        _kernels.grow_closure(table, span, [x])
    elems = np.zeros(1, dtype=np.int64)
    for d, x in zip(factors, gens):                 # mixed radix, last factor fastest
        elems = table[elems[:, None], multiples[:d, x]].ravel()
    coords = list(itertools.product(*[range(d) for d in factors]))
    to_vec = np.zeros((order, max(1, len(factors))), dtype=np.int64)
    to_vec[elems, : len(factors)] = coords
    return CyclicDecomposition(factors, to_vec, elems.reshape(factors))


def cyclic_decomposition(b: FiniteGroup) -> CyclicDecomposition:
    return _decompose_cached(b.table.tobytes(), b.order)


# --- cochains -------------------------------------------------------------


@dataclass(frozen=True)
class Cochain:
    """Normalized cochain: values vanish when any argument is 0."""

    degree: int
    module: CModule
    values: np.ndarray      # shape (|C|,) * degree, entries in B

    def value(self, *args: int) -> int:
        return int(self.values[args])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.module == other.module
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.module, self.values.tobytes()))


def build_cochain(module: CModule, degree: int, values) -> Cochain:
    nc, nb = module.base.order, module.coeff.order
    arr = np.asarray(values)    # range-checked before it narrows to int64
    if arr.shape != (nc,) * degree:
        raise NotACocycle(f"values must have shape {(nc,) * degree}")
    outside = (arr < 0) | (arr >= nb)
    if outside.any():
        t = tuple(int(i) for i in np.argwhere(outside)[0])
        raise NotACocycle(f"value {arr[t]} at {t} is not an element of B")
    degenerate = (np.indices(arr.shape) == 0).any(axis=0) & (arr != 0)
    if degenerate.any():
        t = tuple(int(i) for i in np.argwhere(degenerate)[0])
        raise NotACocycle(f"not normalized at {t}")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return Cochain(degree=degree, module=module, values=arr)


def zero_cochain(module: CModule, degree: int) -> Cochain:
    nc = module.base.order
    return Cochain(degree, module, np.zeros((nc,) * degree, dtype=np.int64))


def add_cochains(f: Cochain, g: Cochain) -> Cochain:
    require(f.degree == g.degree and f.module == g.module)
    b = f.module.coeff
    return Cochain(f.degree, f.module, b.table[f.values, g.values])


def neg_cochain(f: Cochain) -> Cochain:
    return Cochain(f.degree, f.module, f.module.coeff.inv[f.values])


@lru_cache(maxsize=64)
def _faces(base: FiniteGroup, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The bar faces of every (degree+1)-tuple t of C, in row-major order.

    Returns (faces, first).  faces[r, i] is the row-major flat index of the
    i-th face of tuple r: face 0 is t[1:] (acted on by first[r] = t[0]),
    face i for 1 <= i <= degree is t with t[i-1] + t[i] merged, and face
    degree+1 is t[:degree].  Face i enters the coboundary with sign (-1)^i.
    """
    nc = base.order
    t = np.indices((nc,) * (degree + 1)).reshape(degree + 1, -1)
    weights = nc ** np.arange(degree - 1, -1, -1)
    merged = [
        np.concatenate([t[: i - 1], base.table[t[i - 1], t[i]][None], t[i + 1:]])
        for i in range(1, degree + 1)
    ]
    faces = np.stack([weights @ f for f in (t[1:], *merged, t[:degree])], axis=1)
    first = t[0]
    faces.setflags(write=False)
    first.setflags(write=False)
    return faces, first


def _coboundary_values(
    module: CModule, degree: int, rows: np.ndarray, cols=slice(None)
) -> np.ndarray:
    """Coboundary of each cochain row at the (degree+1)-tuples ``cols``.

    ``rows`` holds one cochain per row as its row-major flattened values;
    ``cols`` indexes the rows of the face plan.  The result keeps the dtype
    of ``rows``.
    """
    faces, first = _faces(module.base, degree)
    faces, first = faces[cols], first[cols]
    add = module.coeff.table.astype(rows.dtype)
    neg = module.coeff.inv.astype(rows.dtype)
    terms = rows[:, faces]
    acc = module.action.act.astype(rows.dtype)[first, terms[..., 0]]
    for i in range(1, degree + 2):
        acc = add[acc, terms[..., i] if i % 2 == 0 else neg[terms[..., i]]]
    return acc


def coboundary(f: Cochain) -> Cochain:
    """Group-level bar coboundary; target degree f.degree + 1."""
    d, nc = f.degree, f.module.base.order
    vals = _coboundary_values(f.module, d, f.values.reshape(1, -1))
    return Cochain(d + 1, f.module, vals.reshape((nc,) * (d + 1)))


def is_cocycle(f: Cochain) -> bool:
    return bool(np.all(coboundary(f).values == 0))


# --- the linear solver ----------------------------------------------------


def _nonzero_tuples(nc: int, degree: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(1, nc), repeat=degree))


def _nonzero_mask(nc: int, degree: int) -> np.ndarray:
    """Which degree-tuples of C, in row-major order, have no zero entry."""
    return np.indices((nc,) * degree).reshape(degree, nc ** degree).all(axis=0)


@lru_cache(maxsize=64)
def _matrix_faces(base: FiniteGroup, degree: int):
    """Where each face of the bar coboundary lands in its matrix.

    Returns (hits, rows, cols): hits[i] holds the rows (nonzero
    (degree+1)-tuples) and columns (nonzero degree-tuples) that face i
    meets, and the first entry t[0] of each row, which acts in face 0.
    """
    nc = base.order
    faces, first = _faces(base, degree)
    keep = _nonzero_mask(nc, degree + 1)
    faces, first = faces[keep], first[keep]
    src = _nonzero_mask(nc, degree)
    col_of = np.where(src, np.cumsum(src) - 1, -1)
    hits = []
    for i in range(degree + 2):
        cols = col_of[faces[:, i]]
        hit = np.flatnonzero(cols >= 0)
        hits.append((hit, cols[hit], first[hit]))
    for arr in itertools.chain.from_iterable(hits):
        arr.setflags(write=False)
    return tuple(hits), len(first), int(src.sum())


def _coboundary_matrix(m: CModule, dec: CyclicDecomposition, degree: int):
    """Integer block matrix of the coboundary on normalized cochains, in int64.

    Rows are indexed by nonzero (degree+1)-tuples, columns by nonzero
    degree-tuples (degree 0 has the single empty tuple), each times the
    number of cyclic coordinates of B.  Face 0 of a tuple t contributes the
    matrix of xi(t[0], -), face i the block (-1)^i times the identity.
    """
    kk = len(dec.factors)
    k = max(1, kk)
    hits, rows, cols = _matrix_faces(m.base, degree)
    units = [dec.from_vec[tuple(e)] for e in np.eye(kk, dtype=int).tolist()]
    acts = np.zeros((m.base.order, k, k), dtype=np.int64)
    acts[:, :, :kk] = np.swapaxes(dec.to_vec[m.action.act[:, units]], 1, 2)
    mat = np.zeros((rows, cols, k, k), dtype=np.int64)
    for i, (r, c, acting) in enumerate(hits):
        block = acts[acting] if i == 0 else (-1) ** i * np.eye(k, dtype=np.int64)
        np.add.at(mat, (r, c), block)
    return mat.swapaxes(1, 2).reshape(rows * k, -1)


def _moduli(dec: CyclicDecomposition, count: int) -> np.ndarray:
    """The diagonal matrix of the cyclic orders of ``count`` copies of B."""
    return np.diag(list(dec.factors or (1,)) * count)


@dataclass(frozen=True)
class CohomologyGroup:
    """Presentation of Z^n / B^n for a module, with class arithmetic."""

    module: CModule
    degree: int
    factors: tuple[int, ...]            # cyclic orders of the generators
    _sdiag: tuple[int, ...]             # elementary divisors along _basis
    # the rest follows from (module, degree), so == and hash skip it
    _basis: np.ndarray = field(compare=False)               # adapted cocycle lattice basis
    # U @ _basis @ V = S: U and S come from the elimination that found the
    # cocycle lattice, and V is the change to the adapted basis; all three
    # are int64 where they fit, so classification computes in words
    _basis_snf: SmithDecomposition = field(compare=False)
    _dec: CyclicDecomposition = field(compare=False)
    _cols: np.ndarray = field(compare=False)    # flat index of each nonzero tuple

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def _vector(self, rows: np.ndarray) -> np.ndarray:
        """Cyclic coordinates at the nonzero tuples, one column per cochain row."""
        coords = self._dec.to_vec[rows[:, self._cols]]
        return coords.reshape(len(rows), self._basis.shape[0]).T

    def _cochain(self, v) -> Cochain:
        """The cochain with coordinates v at the nonzero tuples; inverse of _vector."""
        m, dec = self.module, self._dec
        nc, kk = m.base.order, len(dec.factors)
        coords = np.asarray(v, dtype=object).reshape(len(self._cols), max(1, kk))[:, :kk]
        coords = (coords % np.array(dec.factors, dtype=object)).astype(np.int64)
        out = np.zeros(nc ** self.degree, dtype=np.int64)
        out[self._cols] = dec.from_vec[tuple(coords.T)]
        return Cochain(self.degree, m, out.reshape((nc,) * self.degree))

    def classify_rows(self, rows: np.ndarray) -> list["CocycleClass"]:
        """Classes of a stack of normalized cochains, one per row-major row.

        One coboundary, one gather and one solve serve the whole stack; a
        row that is not a cocycle raises as ``classify`` does.
        """
        if _coboundary_values(self.module, self.degree, rows).any():
            raise NotACocycle("not a cocycle")
        y = solve_integer(self._basis, self._vector(rows), dec=self._basis_snf)
        require(y is not None, "cocycle outside the computed cocycle lattice")
        gens = [i for i, s in enumerate(self._sdiag) if s > 1]
        coords = y[gens] % np.array(self.factors, dtype=np.int64)[:, None]
        return [CocycleClass(group=self, coords=tuple(c)) for c in coords.T.tolist()]

    def classify(self, f: Cochain) -> "CocycleClass":
        """Coordinates of the class of a cocycle in this presentation."""
        if f.degree != self.degree or f.module != self.module:
            raise NotACocycle("cochain does not belong to this group")
        return self.classify_rows(f.values.reshape(1, -1))[0]

    def representative(self, coords) -> Cochain:
        gen_cols = [i for i, s in enumerate(self._sdiag) if s > 1]
        v = np.zeros(self._basis.shape[0], dtype=object)
        for c, i in zip(coords, gen_cols):
            v += int(c) * self._basis[:, i].astype(object)
        return self._cochain(v)

    def zero(self) -> "CocycleClass":
        return CocycleClass(group=self, coords=(0,) * len(self.factors))


@dataclass(frozen=True)
class CocycleClass:
    group: CohomologyGroup
    coords: tuple[int, ...]

    @property
    def representative(self) -> Cochain:
        return self.group.representative(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "CocycleClass") -> "CocycleClass":
        require(self.group is other.group or self.group == other.group)
        coords = tuple(
            (a + b) % f
            for a, b, f in zip(self.coords, other.coords, self.group.factors)
        )
        return CocycleClass(group=self.group, coords=coords)

    def __neg__(self) -> "CocycleClass":
        coords = tuple(
            (-a) % f for a, f in zip(self.coords, self.group.factors)
        )
        return CocycleClass(group=self.group, coords=coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CocycleClass)
            and self.group == other.group
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash(self.coords)


_COHOM_CACHE: dict = {}


def cohomology(module: CModule, degree: int) -> CohomologyGroup:
    """Compute the degree 1, 2 or 3 cohomology group with presentations."""
    if degree not in (1, 2, 3):
        raise SizeCap("only degrees 1..3 are supported")
    key = (module, degree)
    if key in _COHOM_CACHE:
        return _COHOM_CACHE[key]

    dec = cyclic_decomposition(module.coeff)
    nc = module.base.order
    k = max(1, len(dec.factors))
    cols = np.flatnonzero(_nonzero_mask(nc, degree))
    cols.setflags(write=False)
    n_unknowns = len(cols) * k
    if n_unknowns > _SOLVER_UNKNOWN_CAP:
        raise SizeCap(f"{n_unknowns} unknowns exceed the solver cap")

    if n_unknowns == 0:
        empty = np.zeros((0, 0), dtype=object)
        result = CohomologyGroup(
            module=module,
            degree=degree,
            factors=(),
            _basis=empty,
            _basis_snf=SmithDecomposition(empty, empty, empty, None, None),
            _sdiag=(),
            _dec=dec,
            _cols=cols,
        )
        _COHOM_CACHE[key] = result
        return result

    # the cocycles are the unknown-space part of the kernel of [d | moduli],
    # so the elimination carries only those rows of V
    d_up = _coboundary_matrix(module, dec, degree)
    stacked = np.concatenate([d_up, _moduli(dec, d_up.shape[0] // k)], axis=1)
    proj = integer_kernel(stacked, n_unknowns)
    # the unknown-space moduli always lie in the cocycle lattice
    col_mods = _moduli(dec, len(cols))
    coc_gens = np.concatenate([proj, col_mods], axis=1)
    basis, lattice = column_lattice_basis(coc_gens)
    require(basis.shape == (n_unknowns, n_unknowns))
    # in words once, for this solve and every later classification
    lattice = SmithDecomposition(_words(lattice.u), _words(lattice.s), lattice.v, None, None)

    d_down = _coboundary_matrix(module, dec, degree - 1)
    cob_gens = np.concatenate([d_down, col_mods], axis=1)

    # express coboundaries in the cocycle basis and read off the quotient;
    # the basis is square and nonsingular, so each solution is unique, and
    # its factorisation's V is the identity, so S y = U b gives it
    x = solve_diagonal(lattice, cob_gens)
    require(x is not None, "coboundary outside the cocycle lattice")
    dec_x = smith_normal_form(x, "u uinv")
    sdiag = tuple(
        int(dec_x.s[i, i]) if i < min(dec_x.s.shape) else 0
        for i in range(n_unknowns)
    )
    require(all(s > 0 for s in sdiag), "coboundary lattice not full rank")
    adapted = matmul(basis, dec_x.uinv)
    # U @ basis = S (V is the identity) gives U @ adapted @ dec_x.u = S
    adapted_snf = SmithDecomposition(lattice.u, lattice.s, _words(dec_x.u), None, None)
    result = CohomologyGroup(
        module=module,
        degree=degree,
        factors=tuple(s for s in sdiag if s > 1),
        _basis=adapted,
        _basis_snf=adapted_snf,
        _sdiag=sdiag,
        _dec=dec,
        _cols=cols,
    )
    _COHOM_CACHE[key] = result
    return result


# --- brute-force cross-check ----------------------------------------------


def _candidate_matrix(module: CModule, degree: int) -> np.ndarray:
    """All normalized cochains as rows of row-major flattened values.

    Row order matches itertools.product over the nonzero tuples (first
    tuple most significant); entries are in the narrowest unsigned dtype
    that holds B.
    """
    nc, nb = module.base.order, module.coeff.order
    free = np.flatnonzero(_nonzero_mask(nc, degree))
    k = len(free)
    total = nb ** k
    if total > BRUTE_FORCE_CAP:
        raise SizeCap(f"{nb}^{k} candidates exceed the brute-force cap")
    idx = np.arange(total, dtype=np.int64)
    out = np.zeros((total, nc ** degree), dtype=np.min_scalar_type(nb - 1))
    for pos, col in enumerate(free):
        out[:, col] = idx // nb ** (k - 1 - pos) % nb
    return out


def _cocycles(module: CModule, degree: int) -> np.ndarray:
    """Every normalized cocycle, as a row of _candidate_matrix.

    Candidates are filtered one coboundary column at a time, so no
    candidates x targets matrix is ever built.  The columns of tuples with
    no zero entry come first: normalized cochains form a subcomplex of the
    bar complex (Brown, *Cohomology of Groups*, I.5 and IV.2), so the other
    columns vanish on every candidate and only cost time while many remain.
    Every column is still checked.
    """
    v = _candidate_matrix(module, degree)
    constraining = _nonzero_mask(module.base.order, degree + 1)
    for col in np.concatenate([np.flatnonzero(constraining), np.flatnonzero(~constraining)]):
        keep = _coboundary_values(module, degree, v, [col])[:, 0] == 0
        if not keep.all():
            v = v[keep]
    return v


def _distinct_rows(rows: np.ndarray) -> int:
    """Number of distinct rows; np.unique(axis=0) would import numpy.ma."""
    if not rows.size:
        return min(len(rows), 1)
    rows = rows[np.lexsort(rows.T)]
    return 1 + int((rows[1:] != rows[:-1]).any(axis=1).sum())


def cohomology_brute(module: CModule, degree: int) -> int:
    """Order of the cohomology group by exhaustive vectorized enumeration."""
    n_cocycles = len(_cocycles(module, degree))
    lower = _candidate_matrix(module, degree - 1)
    n_cobs = _distinct_rows(_coboundary_values(module, degree - 1, lower))
    require(n_cocycles % n_cobs == 0)
    return n_cocycles // n_cobs


# --- degree-1 cocycles as a group ----------------------------------------


@dataclass(frozen=True)
class Z1Result:
    group: FiniteGroup
    cocycles: tuple[tuple[int, ...], ...]   # value tables, index-aligned


def z1(module: CModule) -> Z1Result:
    """Maps phi with phi(c + c') = phi(c) + xi(c, phi(c')), pointwise sum."""
    nb = module.coeff.order
    maps = _cocycles(module, 1).astype(np.int64)
    # rows come in increasing base-|B| code, so a code's rank is its index
    radix = nb ** np.arange(maps.shape[1] - 1, -1, -1)
    sums = module.coeff.table[maps[:, None, :], maps[None, :, :]]
    table = np.searchsorted(maps @ radix, sums @ radix)
    group = _group(table)   # pointwise sum; the zero cocycle comes first
    return Z1Result(group=group, cocycles=tuple(map(tuple, maps.tolist())))
