"""Finite groups as Cayley tables, homomorphisms, and diagram constructions.

Elements are indices 0..order-1 with the identity at index 0 (tables are
relabeled at construction if needed).  All operations are pure; every
search iterates in increasing index order.  Group operation is written
additively throughout.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .errors import (
    DomainMismatch,
    ImagesDoNotCommute,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotHomomorphism,
    OrderCapExceeded,
    require,
)

DEFAULT_ORDER_CAP = 512
_order_cap = DEFAULT_ORDER_CAP


def get_order_cap() -> int:
    return _order_cap


@contextmanager
def order_cap(cap: int):
    """Apply an order cap inside a with-block and restore the previous one."""
    global _order_cap
    previous, _order_cap = _order_cap, int(cap)
    try:
        yield
    finally:
        _order_cap = previous


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full composition table.

    ``table[a, b]`` is the index of a+b; the identity is index 0 and
    ``inv[a]`` is -a.  Instances are immutable and compared structurally
    (the optional ``name`` is a display label only).
    """

    table: np.ndarray
    inv: np.ndarray
    name: str = field(default="", compare=False)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def add(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def neg(self, a: int) -> int:
        return int(self.inv[a])

    def sub(self, a: int, b: int) -> int:
        return int(self.table[a, self.inv[b]])

    def conj(self, g: int, x: int) -> int:
        """g + x - g."""
        return int(self.table[self.table[g, x], self.inv[g]])

    def conjugates(self, xs=slice(None)) -> np.ndarray:
        """[g, i] = g + xs[i] - g for every g; all of G when xs is omitted."""
        return self.table[self.table[:, xs], self.inv[:, None]]

    def add_many(self, *elems: int) -> int:
        acc = 0
        for e in elems:
            acc = int(self.table[acc, e])
        return acc

    def element_order(self, a: int) -> int:
        """Least k >= 1 with k a = 0; no order is above |G|, so a table
        whose index 0 is not the identity fails instead of looping."""
        k, acc = 1, a
        while acc != 0:
            require(k < self.order, f"element {a} has no order: 0 is not the identity")
            acc = int(self.table[acc, a])
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)
        )

    @cached_property
    def _hash(self) -> int:
        return hash(self.table.tobytes())     # the table is read-only

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label}: order {self.order}>"


def _as_table(table) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MalformedTable(f"table must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise MalformedTable("empty table")
    if arr.min() < 0 or arr.max() >= n:
        raise MalformedTable("table entries must be element indices < order")
    return arr


def _check_order(n: int) -> None:
    if n > _order_cap:
        raise OrderCapExceeded(f"order {n} exceeds cap {_order_cap}")


def _group(table, name: str = "") -> FiniteGroup:
    """A table that is a group by construction, identity at index 0.

    Only the order cap is checked; tables from outside go through
    ``build_group``.
    """
    arr = np.asarray(table, dtype=np.int64)
    _check_order(arr.shape[0])
    inv = np.argmax(arr == 0, axis=1).astype(np.int64)
    arr.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(table=arr, inv=inv, name=name)


def build_group(table, name: str = "") -> FiniteGroup:
    """Validate a Cayley table and return the group, identity relabeled to 0."""
    arr = _as_table(table)
    n = arr.shape[0]
    _check_order(n)

    witness = _kernels.assoc_violation(arr)
    if witness is not None:
        raise NotAssociative(f"({witness[0]}+{witness[1]})+{witness[2]} != "
                             f"{witness[0]}+({witness[1]}+{witness[2]})")

    idx = np.arange(n)
    idents = np.flatnonzero((arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0))
    if idents.size == 0:
        raise NoIdentity("no two-sided identity element")
    ident = int(idents[0])
    if ident != 0:
        # swap the identity into slot 0 with a transposition relabeling
        perm = np.arange(n)
        perm[0], perm[ident] = ident, 0
        arr = perm[arr[np.ix_(perm, perm)]]

    # with associativity and an identity, a left and a right inverse agree
    zero = arr == 0
    bad = np.flatnonzero(~(zero.any(axis=1) & zero.any(axis=0)))
    if bad.size:
        raise NoInverse(f"element {bad[0]} has no two-sided inverse")
    return _group(arr, name)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by its value table ``map`` on dom indices."""

    dom: FiniteGroup
    cod: FiniteGroup
    map: np.ndarray
    name: str = field(default="", compare=False)

    def __call__(self, a: int) -> int:
        return int(self.map[a])

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.map)))

    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(int(a) for a in np.where(self.map == 0)[0])

    def is_injective(self) -> bool:
        return len(set(self.map.tolist())) == self.dom.order

    def is_surjective(self) -> bool:
        return len(set(self.map.tolist())) == self.cod.order

    def is_zero(self) -> bool:
        return bool(np.all(self.map == 0))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroupHom)
            and self.dom == other.dom
            and self.cod == other.cod
            and np.array_equal(self.map, other.map)
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.map.tobytes()))

    def __repr__(self) -> str:
        label = self.name or "hom"
        return f"<{label}: {self.dom!r} -> {self.cod!r}>"


def build_hom(dom: FiniteGroup, cod: FiniteGroup, mapping, name: str = "") -> GroupHom:
    m = np.asarray(mapping, dtype=np.int64)
    if m.shape != (dom.order,):
        raise NotHomomorphism(
            f"map has length {m.shape}, expected ({dom.order},)"
        )
    if m.min() < 0 or m.max() >= cod.order:
        raise NotHomomorphism("map values must be codomain indices")
    witness = _kernels.hom_violation(dom.table, cod.table, m)
    if witness is not None:
        a, b = witness
        raise NotHomomorphism(
            f"f({a}+{b}) = f({dom.add(a, b)}) = {m[dom.add(a, b)]} but "
            f"f({a})+f({b}) = {cod.add(int(m[a]), int(m[b]))}"
        )
    return _hom(dom, cod, m, name)


def _hom(dom: FiniteGroup, cod: FiniteGroup, mapping, name: str = "") -> GroupHom:
    """A map that is a homomorphism by construction; not validated."""
    m = np.asarray(mapping, dtype=np.int64)
    m.setflags(write=False)
    return GroupHom(dom=dom, cod=cod, map=m, name=name)


def identity_hom(g: FiniteGroup) -> GroupHom:
    return _hom(g, g, np.arange(g.order), name="id")


def zero_hom(dom: FiniteGroup, cod: FiniteGroup) -> GroupHom:
    return _hom(dom, cod, np.zeros(dom.order, dtype=np.int64), name="0")


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer . inner (apply inner first)."""
    if inner.cod != outer.dom:
        raise DomainMismatch("composition: codomain/domain mismatch")
    return _hom(inner.dom, outer.cod, outer.map[inner.map])


# --- subgroups and quotients ---------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup realized as a group in its own right plus an embedding."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    group: FiniteGroup
    embedding: GroupHom

    def index_of(self, parent_elem: int) -> int:
        return self.elements.index(parent_elem)


def close_under_group(g: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest subgroup containing seed."""
    closed = _kernels.grow_closure(g.table, np.zeros(g.order, dtype=bool), [0, *seed])
    return tuple(np.flatnonzero(closed).tolist())


def subgroup_from_elements(parent: FiniteGroup, elements) -> Subgroup:
    elems = tuple(sorted(set(int(e) for e in elements)))
    if 0 not in elems:
        raise MalformedTable("subgroup must contain the identity")
    members = np.asarray(elems, dtype=np.int64)
    pos = np.full(parent.order, -1, dtype=np.int64)
    pos[members] = np.arange(len(elems))
    sums = parent.table[np.ix_(members, members)]
    table = pos[sums]
    if (table < 0).any():
        i, j = np.argwhere(table < 0)[0]
        raise MalformedTable(
            f"subset not closed: {elems[i]}+{elems[j]} = {sums[i, j]} outside subset"
        )
    # a finite subset closed under + that holds 0 is a subgroup
    group = _group(table)
    emb = _hom(group, parent, members)
    return Subgroup(parent=parent, elements=elems, group=group, embedding=emb)


def kernel(f: GroupHom) -> Subgroup:
    return subgroup_from_elements(f.dom, f.kernel_elements())


def normal_closure(g: FiniteGroup, seed) -> tuple[int, ...]:
    """Smallest normal subgroup containing seed: close, add conjugates, repeat."""
    closed = np.zeros(g.order, dtype=bool)
    new = [0, *seed]
    while len(new):
        _kernels.grow_closure(g.table, closed, new)
        members = np.flatnonzero(closed)
        new = np.setdiff1d(g.conjugates(members), members)
    return tuple(np.flatnonzero(closed).tolist())


def _membership(g: FiniteGroup, elements) -> np.ndarray:
    member = np.zeros(g.order, dtype=bool)
    member[list(elements)] = True
    return member


def is_normal(g: FiniteGroup, elements) -> bool:
    member = _membership(g, elements)
    elems = np.flatnonzero(member)
    return bool(member[g.conjugates(elems)].all())


# entries per |M| x |N| gather below; larger subgroups are read in slices of N
_GATHER = 1 << 20


def _slices(rows: int, cols: int):
    step = max(1, _GATHER // max(rows, 1))
    return (slice(lo, lo + step) for lo in range(0, cols, step))


def _is_normal_on_codes(a: FiniteGroup, b: FiniteGroup, members, normal) -> bool:
    """Whether m + n - m lies in N for every m in M, n in N; M and N are
    subgroups of A x B given by codes x * |B| + y, as in ``_coset_quotient``."""
    nb, normal = b.order, np.asarray(normal, dtype=np.int64)
    mx, my = np.divmod(np.asarray(members, dtype=np.int64), nb)
    nx, ny = np.divmod(normal, nb)
    inside = np.zeros(a.order * nb, dtype=bool)
    inside[normal] = True
    for s in _slices(len(mx), len(nx)):
        conj = (a.table[a.table[mx[:, None], nx[s]], a.inv[mx, None]] * nb
                + b.table[b.table[my[:, None], ny[s]], b.inv[my, None]])
        if not inside[conj].all():
            return False
    return True


def _coset_quotient(
    a: FiniteGroup, b: FiniteGroup, members, normal, twist=None
) -> tuple[np.ndarray, np.ndarray, FiniteGroup]:
    """M/N on codes x * |B| + y, for M a subgroup of A x B and N normal in M.

    ``members`` lists M's codes in increasing order, ``normal`` N's, each
    once.  The law is componentwise, or (x, y) + (x', y') = (x + y * x',
    y + y') with ``twist[y, x]`` = y * x where N's B digits act trivially;
    either way the coset N + m is read digit by digit.  The order cap is checked on
    |M| / |N| before anything is gathered.  Each coset is labeled by its
    least code and M/N's table is built on the labels alone.  Returns the
    labels in increasing order, proj[code] = the index of a member's coset
    (-1 off M), and M/N.
    """
    nb = b.order
    members = np.asarray(members, dtype=np.int64)
    nx, ny = np.divmod(np.asarray(normal, dtype=np.int64), nb)
    _check_order(len(members) // len(nx))
    mx, my = np.divmod(members, nb)
    rep = members
    for s in _slices(len(members), len(nx)):
        coset = a.table[nx[s], mx[:, None]] * nb + b.table[ny[s], my[:, None]]
        rep = np.minimum(rep, coset.min(axis=1))
    labels = members[rep == members]
    proj = np.full(a.order * nb, -1, dtype=np.int64)
    proj[labels] = np.arange(len(labels))
    proj[members] = proj[rep]
    proj.setflags(write=False)
    lx, ly = np.divmod(labels, nb)
    moved = lx if twist is None else twist[ly[:, None], lx]
    q = _group(proj[a.table[lx[:, None], moved] * nb + b.table[ly[:, None], ly]])
    return labels, proj, q


def quotient_by(g: FiniteGroup, normal_elements) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, cosets labeled as in ``_coset_quotient``."""
    nelems = sorted(set(int(e) for e in normal_elements))
    member = _membership(g, nelems)
    # a finite subset that holds 0 and is closed under + is a subgroup
    subgroup = member[0] and member[g.table[np.ix_(nelems, nelems)]].all()
    require(subgroup and is_normal(g, nelems), "quotient_by requires a normal subgroup")
    _, proj, q = _coset_quotient(g, _group([[0]]), np.arange(g.order), nelems)
    return q, _hom(g, q, proj)


def cokernel(f: GroupHom) -> tuple[FiniteGroup, GroupHom]:
    """Quotient of cod by the normal closure of image(f), with projection."""
    n = normal_closure(f.cod, f.image())
    return quotient_by(f.cod, n)


# --- products, pullbacks, semidirect products -----------------------------


@dataclass(frozen=True)
class ProductResult:
    group: FiniteGroup
    inj1: GroupHom
    inj2: GroupHom
    proj1: GroupHom
    proj2: GroupHom

    def pair_index(self, a: int, b: int) -> int:
        return a * self.inj2.dom.order + b


def direct_product(g: FiniteGroup, h: FiniteGroup) -> ProductResult:
    """G x H with pair (a, b) at index a*|H| + b."""
    ng, nh = g.order, h.order
    _check_order(ng * nh)
    a = np.repeat(np.arange(ng), nh)
    b = np.tile(np.arange(nh), ng)
    table = g.table[np.ix_(a, a)] * nh + h.table[np.ix_(b, b)]
    prod = _group(table, name=f"{g.name}x{h.name}" if g.name and h.name else "")
    inj1 = _hom(g, prod, np.arange(ng) * nh)
    inj2 = _hom(h, prod, np.arange(nh))
    proj1 = _hom(prod, g, a)
    proj2 = _hom(prod, h, b)
    return ProductResult(prod, inj1, inj2, proj1, proj2)


@dataclass(frozen=True)
class PullbackResult:
    group: FiniteGroup
    p1: GroupHom
    p2: GroupHom
    pos: np.ndarray = field(compare=False)     # [a, b] -> index of (a, b), or -1

    def pair_index(self, a, b):
        """Index of the member pair (a, b); a and b broadcast as arrays."""
        return self.pos[a, b]


def pullback_pairs(f: GroupHom, g: GroupHom) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (a, b) with f(a) = g(b), in lexicographic order."""
    if f.cod != g.cod:
        raise DomainMismatch("pullback requires a shared codomain")
    return np.nonzero(f.map[:, None] == g.map[None, :])


def pullback(f: GroupHom, g: GroupHom) -> PullbackResult:
    """{(a, b) : f(a) = g(b)} in lexicographic order, with its projections.

    The table is built on the member pairs alone, so the order cap bounds
    the pullback and not the product A x B around it.
    """
    a, b = pullback_pairs(f, g)
    nb = g.dom.order
    _check_order(len(a))
    pos = np.full((f.dom.order, nb), -1, dtype=np.int64)
    pos[a, b] = np.arange(len(a))
    pos.setflags(write=False)
    grp = _group(pos[f.dom.table[np.ix_(a, a)], g.dom.table[np.ix_(b, b)]])
    return PullbackResult(grp, _hom(grp, f.dom, a), _hom(grp, g.dom, b), pos)


@dataclass(frozen=True)
class SemidirectResult:
    group: FiniteGroup
    inj_normal: GroupHom    # N -> N x| G, n |-> (n, 0)
    inj_actor: GroupHom     # G -> N x| G, g |-> (0, g)
    retraction: GroupHom    # N x| G -> G


def semidirect_product(action) -> SemidirectResult:
    """N x| G with (n, g) + (n', g') = (n + g*n', g + g'), index n*|G| + g."""
    n_grp, g_grp, act = action.object, action.actor, action.act
    nn, ng = n_grp.order, g_grp.order
    _check_order(nn * ng)
    ni = np.repeat(np.arange(nn), ng)
    gi = np.tile(np.arange(ng), nn)
    twisted = act[np.ix_(gi, ni)]                       # g * n'
    table = n_grp.table[ni[:, None], twisted] * ng + g_grp.table[np.ix_(gi, gi)]
    grp = _group(table)
    inj_normal = _hom(n_grp, grp, np.arange(nn) * ng)
    inj_actor = _hom(g_grp, grp, np.arange(ng))
    retraction = _hom(grp, g_grp, gi)
    return SemidirectResult(grp, inj_normal, inj_actor, retraction)


def cooperator_sums(kappa: GroupHom, iota: GroupHom) -> np.ndarray:
    """[x, y] = kappa(x) + iota(y), once every kappa(x) commutes with every iota(y)."""
    if kappa.cod != iota.cod:
        raise DomainMismatch("cooperator requires a shared codomain")
    table, u, v = kappa.cod.table, kappa.map[:, None], iota.map[None, :]
    sums = table[u, v]
    bad = sums != table[v, u]
    if bad.any():
        x, y = (int(i) for i in np.argwhere(bad)[0])
        raise ImagesDoNotCommute(
            f"kappa({x}) = {kappa(x)} and iota({y}) = {iota(y)} do not commute"
        )
    return sums


def cooperator(kappa: GroupHom, iota: GroupHom) -> GroupHom:
    """(x, y) |-> kappa(x) + iota(y), a homomorphism when the images commute."""
    sums = cooperator_sums(kappa, iota)
    return _hom(direct_product(kappa.dom, iota.dom).group, kappa.cod, sums.ravel())


def is_short_exact(kappa: GroupHom, gamma: GroupHom) -> bool:
    """True iff kappa is injective, gamma surjective, im(kappa) = ker(gamma)."""
    if kappa.cod != gamma.dom:
        raise DomainMismatch("is_short_exact: cod(kappa) must equal dom(gamma)")
    return (
        kappa.is_injective()
        and gamma.is_surjective()
        and kappa.image() == gamma.kernel_elements()
    )


# --- homomorphism searches ------------------------------------------------


def all_homs(g: FiniteGroup, h: FiniteGroup, limit: int | None = None) -> list[GroupHom]:
    """All homomorphisms G -> H, sorted lexicographically by value table.

    The value tables come from ``_hom_rows``, a bounded memo keyed by the
    two tables, so each distinct pair is searched and checked once per
    process; the homs are built around the caller's ``g`` and ``h``.
    """
    return [_hom(g, h, m) for m in _hom_rows(g, h)[:limit]]


@lru_cache(maxsize=64)
def _hom_rows(g: FiniteGroup, h: FiniteGroup) -> np.ndarray:
    """Value tables of all homomorphisms G -> H, sorted, as read-only rows.

    Candidates are the rows of one array, -1 where a value is not yet known.
    Generators are added one at a time, each the least element outside the
    subgroup generated so far, and each sent to every element of H whose
    order divides its own.  The subgroup generated so far is then walked
    breadth first from the known elements: a new element a + g_k
    takes its column in one gather, and an edge a + g_k that lands on a
    known element drops the rows where the two values disagree.  A row
    that survives every edge of the Cayley graph is a homomorphism; the
    survivors are still checked against the definition.
    """
    h_orders = np.asarray([h.element_order(x) for x in h.elements()])
    rows = np.full((1, g.order), -1, dtype=np.int64)
    rows[:, 0] = 0
    known = np.zeros(g.order, dtype=bool)
    known[0] = True
    gens: list[int] = []
    while not known.all():
        gen = int(np.argmin(known))
        gens.append(gen)
        images = np.flatnonzero(g.element_order(gen) % h_orders == 0)
        rows = np.repeat(rows, len(images), axis=0)
        rows[:, gen] = np.tile(images, len(rows) // len(images))
        known[gen] = True
        cols = np.asarray(gens)
        frontier = np.flatnonzero(known)
        while frontier.size:
            targets = g.table[np.ix_(frontier, cols)].ravel()      # a + g_k
            values = h.table[rows[:, frontier, None], rows[:, None, cols]]
            values = values.reshape(len(rows), -1)
            fresh = ~known[targets]
            rows[:, targets[fresh]] = values[:, fresh]
            rows = rows[(rows[:, targets] == values).all(axis=1)]
            frontier = np.flatnonzero(~known & _membership(g, targets[fresh]))
            known[frontier] = True
    rows = rows[np.lexsort(rows.T[::-1])]
    require(_kernels.homs_violation(g.table, h.table, rows) is None,
            "the generator walk admitted a non-homomorphism")
    rows.setflags(write=False)
    return rows


def find_isomorphisms(
    g: FiniteGroup, h: FiniteGroup, limit: int | None = None
) -> list[GroupHom]:
    """All isomorphisms G -> H, sorted lexicographically, truncated at limit."""
    if g.order != h.order:
        return []
    return [f for f in all_homs(g, h) if f.is_injective()][:limit]


def factor_through(labels: np.ndarray, values: np.ndarray, size: int) -> np.ndarray | None:
    """out[..., labels[i]] = values[..., i], or None where a fibre takes two values.

    Labels that never occur in ``labels`` read -1.
    """
    present, first = np.unique(labels, return_index=True)
    out = np.full(values.shape[:-1] + (size,), -1, dtype=np.int64)
    out[..., present] = values[..., first]
    return None if (out[..., labels] != values).any() else out
