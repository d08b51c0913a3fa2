"""Abelian extensions of a group and their Baer-sum tensor structure.

The groupoid of abelian extensions with a fixed kernel module carries a
symmetric 2-group structure: the tensor is the Baer sum (pullback over
the base, then pushforward along the codiagonal of the kernel), the unit
is the split extension coming from the semidirect product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .actions import (
    CModule,
    CModuleMorphism,
    identity_morphism,
    induced_module,
)
from .errors import (
    KernelNotAbelian,
    ModuleMismatch,
    NotExact,
    require,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    _coset_quotient,
    _group,
    _hom,
    compose,
    is_short_exact,
    pullback_pairs,
    semidirect_product,
)

@dataclass(frozen=True)
class AbelianExtension:
    """Short exact sequence with abelian kernel and its induced module."""

    kernel_arrow: GroupHom      # B -> E
    quotient_arrow: GroupHom    # E -> C
    module: CModule

    @property
    def middle(self) -> FiniteGroup:
        return self.kernel_arrow.cod

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbelianExtension)
            and self.kernel_arrow == other.kernel_arrow
            and self.quotient_arrow == other.quotient_arrow
        )

    def __hash__(self) -> int:
        return hash((self.kernel_arrow, self.quotient_arrow))


@dataclass(frozen=True)
class ExtensionMorphism:
    """Morphism in the fibre: identity on kernel and base."""

    dom: AbelianExtension
    cod: AbelianExtension
    mid: GroupHom               # E -> E'

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.mid == other.mid
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.mid))


@dataclass(frozen=True)
class ExtensionLift:
    """Cocartesian lift data for a pushforward along beta."""

    source: AbelianExtension
    beta: CModuleMorphism
    mid: GroupHom               # E -> E'
    target: AbelianExtension


def build_extension(kappa: GroupHom, gamma: GroupHom) -> AbelianExtension:
    if not kappa.dom.is_abelian():
        raise KernelNotAbelian("extension kernel must be abelian")
    if not is_short_exact(kappa, gamma):
        raise NotExact("(kernel, quotient) is not short exact")
    # the conjugation module; lifts agree because B is abelian
    module = induced_module(kappa, kappa.cod.conjugates(kappa.map), gamma, NotExact)
    return _extension(kappa, gamma, module)


def _extension(kappa: GroupHom, gamma: GroupHom, module: CModule) -> AbelianExtension:
    """A short exact sequence by construction, with the module it induces;
    not validated."""
    return AbelianExtension(kernel_arrow=kappa, quotient_arrow=gamma, module=module)


def unit_extension(module: CModule) -> AbelianExtension:
    """The split extension through the semidirect product of the action."""
    sd = semidirect_product(module.action)
    return _extension(sd.inj_normal, sd.retraction, module)


def _baer_quotient(
    e1: AbelianExtension, e2: AbelianExtension, pairs=None
) -> tuple[np.ndarray, AbelianExtension]:
    """E1 x_C E2 modulo the antidiagonal copy of B, as an extension of C by
    B, and proj[a * |E2| + b], the index of each pair's coset.  ``pairs``
    are the pullback's member pairs, when already listed."""
    if e1.module != e2.module:
        raise ModuleMismatch("Baer sum requires the same kernel module")
    a, b = pullback_pairs(e1.quotient_arrow, e2.quotient_arrow) if pairs is None else pairs
    k1, k2, n2 = e1.kernel_arrow, e2.kernel_arrow, e2.middle.order
    labels, proj, q_grp = _coset_quotient(e1.middle, e2.middle, a * n2 + b,
                                          k1.map * n2 + k2.cod.inv[k2.map])
    kernel_arrow = _hom(k1.dom, q_grp, proj[k1.map * n2])
    # kappa1(B) is the kernel of gamma1, so a coset's pairs share gamma1(a)
    gamma = e1.quotient_arrow
    quotient_arrow = _hom(q_grp, gamma.cod, gamma.map[labels // n2])
    return proj, _extension(kernel_arrow, quotient_arrow, e1.module)


def baer_sum(e1: AbelianExtension, e2: AbelianExtension) -> AbelianExtension:
    """Pullback over the base, then quotient by the antidiagonal kernel."""
    return _baer_quotient(e1, e2)[1]


def pushforward_extension(
    ext: AbelianExtension, beta: CModuleMorphism
) -> ExtensionLift:
    """Cocartesian lift of an extension along a module morphism.

    The middle is B' x| E, E acting through gamma, modulo the normal
    subgroup {(beta b, -kappa b)}.  Its elements kappa(b) act trivially on
    B', so the coset of (b', x) is {(b' + beta b, -kappa b + x)}, and only
    the quotient's table uses the action.
    """
    if beta.dom != ext.module:
        raise ModuleMismatch("beta must start at the extension's module")
    kappa, gamma = ext.kernel_arrow, ext.quotient_arrow
    bp, n = beta.cod.coeff, ext.middle.order
    labels, proj, q_grp = _coset_quotient(
        bp, ext.middle, np.arange(bp.order * n), beta.hom.map * n + ext.middle.inv[kappa.map],
        twist=beta.cod.action.act[gamma.map])
    kernel_arrow = _hom(bp, q_grp, proj[np.arange(bp.order) * n])
    quotient_arrow = _hom(q_grp, gamma.cod, gamma.map[labels % n])
    target = _extension(kernel_arrow, quotient_arrow, beta.cod)
    return ExtensionLift(source=ext, beta=beta, mid=_hom(ext.middle, q_grp, proj[:n]),
                         target=target)


def extension_morphisms_over(
    e: AbelianExtension, g: AbelianExtension, beta: CModuleMorphism
) -> list[GroupHom]:
    """All mid: E -> G with mid.kappa = kappa_g.beta and gamma_g.mid = gamma,
    sorted by their value tables: the one-beta case of ``_morphisms_over``."""
    _, mids = _morphisms_over(e, g, [beta])
    return [_hom(e.middle, g.middle, m) for m in mids]


def _morphisms_over(
    e: AbelianExtension, g: AbelianExtension, betas: list[CModuleMorphism]
) -> tuple[np.ndarray, np.ndarray]:
    """(which, mids): every morphism E -> G over (betas[k], id_C) for every k,
    mids[i] over betas[which[i]], sorted by (which, value table).

    Take the least-index pointed section s of e and its 2-cocycle f.  A
    candidate is t = mid.s, a map C -> G over id_C, and
    mid(kappa(b) + s(c)) = kappa_g(beta b) + t(c) is a homomorphism iff
    t(c1) + t(c2) = kappa_g(beta f(c1, c2)) + t(c1 + c2) for all c1, c2;
    the solutions form a torsor under Z^1(C, B') (Holt, Eick & O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 7; Brown,
    *Cohomology of Groups*, IV.2).  The section, f, the step plan and the
    fibres of g are shared by the family: the candidates of every beta are
    rows of one array, each carrying the index of its beta, grown one
    element of C at a time; each step drops the rows that fail an equation
    whose three arguments have just become assigned, read with the row's
    own beta.  The survivors are checked against the definition, each
    against its own beta, so a wrong reduction cannot admit a
    non-morphism; that none is missed is pinned by the tests against the
    candidate loop and the Z^1 torsor count.
    """
    if any(beta.dom != e.module or beta.cod != g.module for beta in betas):
        raise ModuleMismatch("beta must run between the two kernel modules")
    kappa, gamma = e.kernel_arrow, e.quotient_arrow
    em, gm, c_grp = e.middle, g.middle, gamma.cod
    # kappa_g . beta on B, one row per beta
    push = g.kernel_arrow.map[np.array([beta.hom.map for beta in betas],
                                       dtype=np.int64).reshape(len(betas), kappa.dom.order)]
    in_b = np.full(em.order, -1, dtype=np.int64)
    in_b[kappa.map] = np.arange(kappa.dom.order)
    s = np.unique(gamma.map, return_index=True)[1]      # s(0) = 0
    f = in_b[em.table[em.table[s[:, None], s], em.inv[s[c_grp.table]]]]    # s's 2-cocycle
    # an equation is checked at the step that assigns the last of its arguments
    c_idx = np.arange(c_grp.order)
    step = np.maximum(np.maximum.outer(c_idx, c_idx), c_grp.table)
    fibres = g.quotient_arrow.map
    which = np.arange(len(betas))
    t = np.zeros((len(betas), c_grp.order), dtype=np.int64)     # t(0) = 0
    for c in range(1, c_grp.order):
        fibre = np.flatnonzero(fibres == c)
        t = np.repeat(t, len(fibre), axis=0)
        which = np.repeat(which, len(fibre))
        t.reshape(-1, len(fibre), c_grp.order)[:, :, c] = fibre
        c1, c2 = np.nonzero(step == c)
        lhs = gm.table[t[:, c1], t[:, c2]]
        rhs = gm.table[push[which[:, None], f[c1, c2]], t[:, c_grp.table[c1, c2]]]
        keep = (lhs == rhs).all(axis=1)
        t, which = t[keep], which[keep]
    x = np.arange(em.order)
    b_of = in_b[em.table[x, em.inv[s[gamma.map]]]]     # x = kappa(b) + s(gamma x)
    mids = gm.table[push[which[:, None], b_of], t[:, gamma.map]]
    order = np.lexsort((*mids.T[::-1], which))
    which, mids = which[order], mids[order]
    require(
        _kernels.homs_violation(em.table, gm.table, mids) is None
        and (mids[:, kappa.map] == push[which]).all()
        and (fibres[mids] == gamma.map).all(),
        "the reduced cocycle equation admitted a non-morphism",
    )
    return which, mids


def fibre_morphisms(
    e1: AbelianExtension, e2: AbelianExtension
) -> list[ExtensionMorphism]:
    """Every morphism over (id_B, id_C): the search over beta = id."""
    mids = extension_morphisms_over(e1, e2, identity_morphism(e1.module))
    return [ExtensionMorphism(dom=e1, cod=e2, mid=m) for m in mids]


def are_fibre_isomorphic(e1: AbelianExtension, e2: AbelianExtension) -> bool:
    return bool(fibre_morphisms(e1, e2))


def pi1_group(module: CModule) -> tuple[FiniteGroup, list[ExtensionMorphism]]:
    """Automorphism group of the unit extension, under composition."""
    unit = unit_extension(module)
    autos = fibre_morphisms(unit, unit)
    key = {m.mid.map.tobytes(): i for i, m in enumerate(autos)}
    table = [
        [key[compose(a.mid, b.mid).map.tobytes()] for b in autos]
        for a in autos
    ]
    # composition; the identity is the lexicographically least automorphism
    return _group(table), autos
