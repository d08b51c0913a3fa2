"""Bar-resolution cohomology of finite modules via integer linear algebra.

Normalized cochains are used throughout; coefficients are handled through
an invariant-factor decomposition of the abelian group, which turns the
cocycle and coboundary conditions into integer congruence systems solved
by Smith normal form.  A brute-force enumerator cross-checks the solver
on small systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .actions import CModule
from .errors import LawViolation, NotACocycle, SizeCap, require
from .groups import FiniteGroup, _group, direct_product, find_isomorphisms
from .snf import (
    SmithDecomposition,
    column_lattice_basis,
    integer_kernel,
    smith_normal_form,
    solve_integer,
)

BRUTE_FORCE_CAP = 1 << 20
_SOLVER_UNKNOWN_CAP = 4096


def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return _group(table, name or f"Z{n}")


def _divisor_chains(n: int) -> list[tuple[int, ...]]:
    """All chains d1 | d2 | ... | dk with product n and di >= 2."""
    if n == 1:
        return [()]
    chains = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 1:
            chains.append(prefix)
            return
        start = prefix[-1] if prefix else 2
        for d in range(start, remaining + 1):
            if remaining % d == 0 and (not prefix or d % prefix[-1] == 0):
                rec(remaining // d, prefix + (d,))

    rec(n, ())
    return chains


@dataclass(frozen=True)
class CyclicDecomposition:
    """B ~= Z_{d1} x ... x Z_{dk} with an explicit isomorphism."""

    factors: tuple[int, ...]
    to_vec: np.ndarray      # (|B|, k) coordinates of each element
    from_vec: dict          # tuple -> element index


def _mixed_radix_group(factors: tuple[int, ...]) -> FiniteGroup:
    """Z_{d1} x ... x Z_{dk}, coordinate tuples in lexicographic order."""
    group = cyclic_group(1)
    for d in factors:
        group = direct_product(group, cyclic_group(d)).group
    return group


@lru_cache(maxsize=None)
def _decompose_cached(table_bytes: bytes, order: int) -> CyclicDecomposition:
    table = np.frombuffer(table_bytes, dtype=np.int64).reshape(order, order)
    b = _group(table)
    for chain in _divisor_chains(order):
        model = _mixed_radix_group(chain)
        isos = find_isomorphisms(model, b, limit=1)
        if isos:
            iso = isos[0]
            coords = list(itertools.product(*[range(d) for d in chain]))
            to_vec = np.zeros((order, max(1, len(chain))), dtype=np.int64)
            from_vec = {}
            for i, c in enumerate(coords):
                elem = iso(i)
                to_vec[elem, : len(chain)] = c
                from_vec[c] = elem
            return CyclicDecomposition(chain, to_vec, from_vec)
    raise LawViolation("no cyclic decomposition found (group not abelian?)")


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
    nc = module.base.order
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (nc,) * degree:
        raise NotACocycle(f"values must have shape {(nc,) * degree}")
    for t in itertools.product(range(nc), repeat=degree):
        if 0 in t and arr[t] != 0:
            raise NotACocycle(f"not normalized at {t}")
    arr = arr.copy()
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


def coboundary(f: Cochain) -> Cochain:
    """Group-level bar coboundary; target degree f.degree + 1."""
    m = f.module
    c_grp, b_grp = m.base, m.coeff
    nc = c_grp.order
    d = f.degree
    out = np.zeros((nc,) * (d + 1), dtype=np.int64)
    for t in itertools.product(range(nc), repeat=d + 1):
        acc = m.xi(t[0], int(f.values[t[1:]]))
        sign = -1
        for i in range(d):
            merged = t[:i] + (c_grp.add(t[i], t[i + 1]),) + t[i + 2:]
            v = int(f.values[merged])
            acc = b_grp.add(acc, v if sign > 0 else b_grp.neg(v))
            sign = -sign
        v = int(f.values[t[:d]])
        acc = b_grp.add(acc, v if sign > 0 else b_grp.neg(v))
        out[t] = acc
    return Cochain(d + 1, m, out)


def is_cocycle(f: Cochain) -> bool:
    return bool(np.all(coboundary(f).values == 0))


# --- the linear solver ----------------------------------------------------


def _nonzero_tuples(nc: int, degree: int) -> list[tuple[int, ...]]:
    if degree == 0:
        return [()]
    return [
        t
        for t in itertools.product(range(1, nc), repeat=degree)
    ]


def _action_matrix(m: CModule, dec: CyclicDecomposition, c: int) -> np.ndarray:
    """Integer matrix of xi(c, -) in the cyclic coordinates."""
    k = max(1, len(dec.factors))
    mat = np.zeros((k, k), dtype=object)
    for j, d in enumerate(dec.factors):
        e_j = dec.from_vec[
            tuple(1 if i == j else 0 for i in range(len(dec.factors)))
        ]
        img = m.xi(c, e_j)
        mat[:, j] = dec.to_vec[img]
    return mat


def _coboundary_matrix(m: CModule, dec: CyclicDecomposition, degree: int):
    """Integer block matrix of the coboundary on normalized cochains.

    Rows are indexed by nonzero (degree+1)-tuples, columns by nonzero
    degree-tuples (degree 0 has the single empty tuple), each times the
    number of cyclic coordinates of B.
    """
    c_grp = m.base
    nc = c_grp.order
    k = max(1, len(dec.factors))
    src = _nonzero_tuples(nc, degree)
    tgt = _nonzero_tuples(nc, degree + 1)
    src_pos = {t: i for i, t in enumerate(src)}
    mat = np.zeros((len(tgt) * k, len(src) * k), dtype=object)
    eye = np.eye(k, dtype=object)

    def add_block(row: int, t: tuple[int, ...], block) -> None:
        if degree > 0 and 0 in t:
            return
        col = src_pos[t]
        mat[row * k: (row + 1) * k, col * k: (col + 1) * k] += block

    for r, t in enumerate(tgt):
        add_block(r, t[1:], _action_matrix(m, dec, t[0]))
        sign = -1
        for i in range(degree):
            merged = t[:i] + (c_grp.add(t[i], t[i + 1]),) + t[i + 2:]
            add_block(r, merged, eye * sign)
            sign = -sign
        add_block(r, t[:degree], eye * sign)
    return mat, src, tgt


def _moduli(dec: CyclicDecomposition, count: int) -> list[int]:
    k = max(1, len(dec.factors))
    base = list(dec.factors) if dec.factors else [1]
    return [base[i % k] for i in range(count * k)]


@dataclass(frozen=True)
class CohomologyGroup:
    """Presentation of Z^n / B^n for a module, with class arithmetic."""

    module: CModule
    degree: int
    group: FiniteGroup                  # product of the invariant factors
    factors: tuple[int, ...]            # cyclic orders of the generators
    _basis: np.ndarray                  # adapted basis of the cocycle lattice
    _basis_snf: SmithDecomposition      # a Smith decomposition of _basis
    _sdiag: tuple[int, ...]             # elementary divisors along _basis
    _dec: CyclicDecomposition
    _tuples: tuple

    @property
    def order(self) -> int:
        return self.group.order

    def _vector(self, f: Cochain) -> np.ndarray:
        k = max(1, len(self._dec.factors))
        v = np.zeros(len(self._tuples) * k, dtype=object)
        for i, t in enumerate(self._tuples):
            v[i * k: (i + 1) * k] = self._dec.to_vec[int(f.values[t])][:k]
        return v

    def _cochain(self, v) -> Cochain:
        m = self.module
        nc = m.base.order
        kk = len(self._dec.factors)
        k = max(1, kk)
        out = np.zeros((nc,) * self.degree, dtype=np.int64)
        for i, t in enumerate(self._tuples):
            coords = tuple(
                int(v[i * k + j]) % self._dec.factors[j] for j in range(kk)
            )
            out[t] = self._dec.from_vec[coords]
        return Cochain(self.degree, m, out)

    def classify(self, f: Cochain) -> "CocycleClass":
        """Coordinates of the class of a cocycle in this presentation."""
        if f.degree != self.degree or f.module != self.module:
            raise NotACocycle("cochain does not belong to this group")
        if not is_cocycle(f):
            raise NotACocycle("not a cocycle")
        y = solve_integer(self._basis, self._vector(f), dec=self._basis_snf)
        require(y is not None, "cocycle outside the computed cocycle lattice")
        coords = tuple(
            int(y[i]) % s
            for i, s in enumerate(self._sdiag)
            if s > 1
        )
        return CocycleClass(group=self, coords=coords)

    def representative(self, coords) -> Cochain:
        gen_cols = [i for i, s in enumerate(self._sdiag) if s > 1]
        v = np.zeros(self._basis.shape[0], dtype=object)
        for c, i in zip(coords, gen_cols):
            v += int(c) * self._basis[:, i]
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
    tuples = _nonzero_tuples(nc, degree)
    n_unknowns = len(tuples) * k
    if n_unknowns > _SOLVER_UNKNOWN_CAP:
        raise SizeCap(f"{n_unknowns} unknowns exceed the solver cap")

    if n_unknowns == 0:
        empty = np.zeros((0, 0), dtype=object)
        result = CohomologyGroup(
            module=module,
            degree=degree,
            group=cyclic_group(1),
            factors=(),
            _basis=empty,
            _basis_snf=SmithDecomposition(empty, empty, empty, empty, empty),
            _sdiag=(),
            _dec=dec,
            _tuples=(),
        )
        _COHOM_CACHE[key] = result
        return result

    d_up, _, tgt = _coboundary_matrix(module, dec, degree)
    row_mods = np.diag(np.array(_moduli(dec, len(tgt)), dtype=object))
    stacked = np.concatenate([d_up, row_mods], axis=1)
    ker = integer_kernel(stacked)
    proj = ker[:n_unknowns, :]
    # the unknown-space moduli always lie in the cocycle lattice
    col_mods = np.diag(np.array(_moduli(dec, len(tuples)), dtype=object))
    coc_gens = np.concatenate([proj, col_mods], axis=1)
    basis = column_lattice_basis(coc_gens)
    require(basis.shape == (n_unknowns, n_unknowns))

    d_down, _, _ = _coboundary_matrix(module, dec, degree - 1)
    cob_gens = np.concatenate([d_down, col_mods], axis=1)

    # express coboundaries in the cocycle basis and read off the quotient;
    # the basis is square and nonsingular, so each solution is unique
    lattice = smith_normal_form(basis)
    x = solve_integer(basis, cob_gens, dec=lattice)
    require(x is not None, "coboundary outside the cocycle lattice")
    dec_x = smith_normal_form(x)
    sdiag = tuple(
        int(dec_x.s[i, i]) if i < min(dec_x.s.shape) else 0
        for i in range(n_unknowns)
    )
    require(all(s > 0 for s in sdiag), "coboundary lattice not full rank")
    adapted = basis @ dec_x.uinv
    # U @ basis @ V = S gives U @ adapted @ (dec_x.u @ V) = S
    adapted_snf = SmithDecomposition(
        u=lattice.u,
        s=lattice.s,
        v=dec_x.u @ lattice.v,
        uinv=lattice.uinv,
        vinv=lattice.vinv @ dec_x.uinv,
    )
    factors = tuple(s for s in sdiag if s > 1)
    group = _mixed_radix_group(factors)

    result = CohomologyGroup(
        module=module,
        degree=degree,
        group=group,
        factors=factors,
        _basis=adapted,
        _basis_snf=adapted_snf,
        _sdiag=sdiag,
        _dec=dec,
        _tuples=tuple(tuples),
    )
    _COHOM_CACHE[key] = result
    return result


# --- brute-force cross-check ----------------------------------------------


def _candidate_matrix(module: CModule, degree: int) -> np.ndarray:
    """All normalized cochains as rows over the nonzero tuples.

    Row order matches itertools.product (first tuple most significant);
    entries are in the narrowest unsigned dtype that holds B.
    """
    nc, nb = module.base.order, module.coeff.order
    tuples = _nonzero_tuples(nc, degree)
    k = len(tuples)
    total = nb ** k
    if total > BRUTE_FORCE_CAP:
        raise SizeCap(f"{nb}^{k} candidates exceed the brute-force cap")
    idx = np.arange(total, dtype=np.int64)
    dtype = np.min_scalar_type(nb - 1)
    return np.stack(
        [(idx // nb ** (k - 1 - pos) % nb).astype(dtype) for pos in range(k)],
        axis=1,
    )


def _coboundary_column(
    module: CModule, degree: int, v: np.ndarray, t: tuple[int, ...]
) -> np.ndarray:
    """Coboundary value at the (degree+1)-tuple t of every candidate row."""
    c_grp, b_grp = module.base, module.coeff
    add, neg = b_grp.table.astype(v.dtype), b_grp.inv.astype(v.dtype)
    col_of = {s: i for i, s in enumerate(_nonzero_tuples(c_grp.order, degree))}
    zero = np.zeros(len(v), dtype=v.dtype)

    def at(s: tuple[int, ...]) -> np.ndarray:
        return v[:, col_of[s]] if s in col_of else zero

    acc = module.action.act[t[0]].astype(v.dtype)[at(t[1:])]
    sign = -1
    for i in range(degree):
        merged = t[:i] + (c_grp.add(t[i], t[i + 1]),) + t[i + 2:]
        term = at(merged)
        acc = add[acc, term if sign > 0 else neg[term]]
        sign = -sign
    term = at(t[:degree])
    return add[acc, term if sign > 0 else neg[term]]


def cohomology_brute(module: CModule, degree: int) -> int:
    """Order of the cohomology group by exhaustive vectorized enumeration.

    Candidates are filtered one coboundary column at a time, so no
    candidates x targets matrix is ever built.
    """
    nc = module.base.order
    v = _candidate_matrix(module, degree)
    for t in itertools.product(range(nc), repeat=degree + 1):
        v = v[_coboundary_column(module, degree, v, t) == 0]
    n_cocycles = len(v)
    if degree == 1:
        cobs = set()
        for b in module.coeff.elements():
            vals = np.asarray(
                [module.coeff.sub(module.xi(c, b), b)
                 for c in range(module.base.order)]
            )
            cobs.add(vals.tobytes())
        n_cobs = len(cobs)
    else:
        lower = _candidate_matrix(module, degree - 1)
        images = np.stack(
            [
                _coboundary_column(module, degree - 1, lower, t)
                for t in itertools.product(range(nc), repeat=degree)
            ],
            axis=1,
        )
        n_cobs = len(np.unique(images, axis=0))
    require(n_cocycles % n_cobs == 0)
    return n_cocycles // n_cobs


# --- degree-1 cocycles as a group ----------------------------------------


@dataclass(frozen=True)
class Z1Result:
    group: FiniteGroup
    cocycles: tuple[tuple[int, ...], ...]   # value tables, index-aligned


def z1(module: CModule) -> Z1Result:
    """Maps phi with phi(c + c') = phi(c) + xi(c, phi(c')), pointwise sum."""
    c_grp, b_grp = module.base, module.coeff
    nc, nb = c_grp.order, b_grp.order
    if nb ** (nc - 1) > BRUTE_FORCE_CAP:
        raise SizeCap("too many candidate 1-cocycles")
    maps = []
    for tail in itertools.product(range(nb), repeat=nc - 1):
        phi = (0,) + tail
        if all(
            phi[c_grp.add(c1, c2)] == b_grp.add(phi[c1], module.xi(c1, phi[c2]))
            for c1 in range(nc)
            for c2 in range(nc)
        ):
            maps.append(phi)
    pos = {phi: i for i, phi in enumerate(maps)}
    table = [
        [pos[tuple(b_grp.add(a, b) for a, b in zip(p1, p2))] for p2 in maps]
        for p1 in maps
    ]
    group = _group(table)   # pointwise sum; the zero cocycle comes first
    return Z1Result(group=group, cocycles=tuple(maps))
