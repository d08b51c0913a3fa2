"""Crossed extensions of a fixed base group and the butterfly calculus.

Butterflies are the invertible-up-to-fraction morphisms between crossed
extensions: a diagram (F, kappa, iota, delta, gamma) with one complex
diagonal, one short-exact diagonal and two pre-crossed wing conditions.
This module builds them, composes them, extracts the underlying module
morphism, and constructs the tensor / inverse / loop structure of the
fibre over a module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import (
    CModule,
    CModuleMorphism,
    GroupAction,
    _cmodule_morphism,
    cmodule_product,
    equivariance_failures,
    identity_morphism,
    induced_module,
    negate,
)
from .crossed import CrossedModule, _xmod, associated_groupoid
from .errors import (
    ActionNotWellDefined,
    BaseMismatch,
    ButterflyConditionViolation,
    CooperatorFails,
    ImagesDoNotCommute,
    ModuleMismatch,
    NotCentral,
    NotExactAtE1,
    NotExactAtE2,
    NotFlippable,
    NotPi1Shape,
    TypeMismatch,
    require,
)
from .extensions import AbelianExtension, build_extension
from .groups import (
    FiniteGroup,
    GroupHom,
    ProductResult,
    PullbackResult,
    _coset_quotient,
    _hom,
    _is_normal_on_codes,
    compose,
    cooperator_sums,
    direct_product,
    factor_through,
    identity_hom,
    is_short_exact,
    kernel,
    pullback,
    pullback_pairs,
    semidirect_product,
    zero_hom,
)


@dataclass(frozen=True)
class CrossedExtension:
    """Exact sequence B >-> E2 -> E1 ->> C whose middle is a crossed module."""

    j: GroupHom                 # B -> E2
    xm: CrossedModule           # boundary E2 -> E1 with E1-action
    p: GroupHom                 # E1 -> C
    module: CModule

    @property
    def b(self) -> FiniteGroup:
        return self.j.dom

    @property
    def e2(self) -> FiniteGroup:
        return self.xm.e2

    @property
    def e1(self) -> FiniteGroup:
        return self.xm.e1

    @property
    def c(self) -> FiniteGroup:
        return self.p.cod

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, CrossedExtension)
            and self.j == other.j
            and self.xm == other.xm
            and self.p == other.p
        )

    def __hash__(self) -> int:
        return hash((self.j, self.xm, self.p))


def build_crossed_extension(
    j: GroupHom, xm: CrossedModule, p: GroupHom
) -> CrossedExtension:
    if j.cod != xm.e2 or p.dom != xm.e1:
        raise TypeMismatch("arrows do not compose with the crossed module")
    if not j.is_injective() or j.image() != tuple(
        sorted(xm.boundary.kernel_elements())
    ):
        raise NotExactAtE2("j must embed exactly the kernel of the boundary")
    if not p.is_surjective():
        raise NotExactAtE1("p is not surjective")
    if p.kernel_elements() != tuple(sorted(xm.boundary.image())):
        raise NotExactAtE1("kernel(p) differs from image(boundary)")
    e2 = xm.e2
    bad = e2.table[j.map] != e2.table[:, j.map].T       # j(b) + x vs x + j(b)
    if bad.any():
        b, x = (int(i) for i in np.argwhere(bad)[0])
        raise NotCentral(f"j({b}) does not commute with {x}")
    module = induced_module(j, xm.action.act[:, j.map], p, ActionNotWellDefined)
    return _xext(j, xm, p, module)


def _xext(j: GroupHom, xm: CrossedModule, p: GroupHom, module: CModule) -> CrossedExtension:
    """A crossed extension by construction, with its induced module; not validated."""
    return CrossedExtension(j=j, xm=xm, p=p, module=module)


def unit_xext(module: CModule) -> CrossedExtension:
    """I: B = B -0-> C = C, the monoidal unit of the fibre over the module.

    Built by invariant: the zero boundary into C makes the module's action
    a crossed module because B is abelian, and the identity arrows embed its
    kernel B and project onto C, so the induced module is ``module`` itself.
    """
    b_grp, c_grp = module.coeff, module.base
    xm = CrossedModule(boundary=zero_hom(b_grp, c_grp), action=module.action)
    return _xext(identity_hom(b_grp), xm, identity_hom(c_grp), module)


@dataclass(frozen=True)
class XExtMorphism:
    """Morphism of crossed extensions over the identity of the base."""

    dom: CrossedExtension
    cod: CrossedExtension
    beta: CModuleMorphism
    f2: GroupHom
    f1: GroupHom

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XExtMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.f2 == other.f2
            and self.f1 == other.f1
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.f2, self.f1))


def build_xext_morphism(
    dom: CrossedExtension,
    cod: CrossedExtension,
    beta: CModuleMorphism,
    f2: GroupHom,
    f1: GroupHom,
) -> XExtMorphism:
    if beta.dom != dom.module or beta.cod != cod.module:
        raise ModuleMismatch("beta does not match the two kernel modules")
    if dom.c != cod.c:
        raise BaseMismatch("crossed extensions must share the base group")
    if compose(f2, dom.j) != compose(cod.j, beta.hom):
        raise TypeMismatch("kernel square does not commute")
    if compose(cod.xm.boundary, f2) != compose(f1, dom.xm.boundary):
        raise TypeMismatch("middle square does not commute")
    if compose(cod.p, f1) != dom.p:
        raise TypeMismatch("base square does not commute")
    bad = equivariance_failures(dom.xm.action, cod.xm.action, f2.map[None], f1.map[None])[0]
    if bad.any():
        g, x = (int(i) for i in np.argwhere(bad)[0])
        raise TypeMismatch(
            f"middle square is not a crossed module morphism at ({g}, {x})"
        )
    return XExtMorphism(dom=dom, cod=cod, beta=beta, f2=f2, f1=f1)


# --- pushforward, product, tensor, inverse --------------------------------


def pushforward_xext(
    e: CrossedExtension, beta: CModuleMorphism
) -> tuple[CrossedExtension, XExtMorphism]:
    """Cocartesian lift along beta: middle (B' x E2)/{(beta b, -j b)}.

    The coset {(b' + beta b, x - j b)} is labeled by its least code
    b' * |E2| + x (``_coset_quotient``); B' x E2 itself is never built.
    The pairs (beta b, -j b) are central, as j(B) is (Brown, IV.3).
    g * (b', x) = (p(g) * b', g * x) is an automorphism of B' x E2, so it
    is constant on cosets when it keeps the identity coset, and it is read
    on the coset labels only, as in ``tensor_xext_with_data``.
    """
    if beta.dom != e.module:
        raise ModuleMismatch("beta must start at the extension's module")
    bp, e2, n2 = beta.cod.coeff, e.e2, e.e2.order
    normal = beta.hom.map * n2 + e2.inv[e.j.map]
    labels, proj, q_grp = _coset_quotient(bp, e2, np.arange(bp.order * n2), normal)
    lb, lx = np.divmod(labels, n2)
    act_b, act_x = beta.cod.action.act[e.p.map], e.xm.action.act
    nb, nx = np.divmod(normal, n2)
    if proj[act_b[:, nb] * n2 + act_x[:, nx]].any():
        raise ActionNotWellDefined("pushforward action is not constant on cosets")
    act = proj[act_b[:, lb] * n2 + act_x[:, lx]]
    bnd_new = _hom(q_grp, e.e1, e.xm.boundary.map[lx])    # the boundary kills j(B)
    result = _xext(_hom(bp, q_grp, proj[np.arange(bp.order) * n2]), _xmod(bnd_new, act),
                   e.p, beta.cod)
    lift = XExtMorphism(e, result, beta, _hom(e2, q_grp, proj[:n2]), identity_hom(e.e1))
    return result, lift


@dataclass(frozen=True)
class XExtProduct:
    xext: CrossedExtension
    pb: PullbackResult                  # E1 x_C E1'
    middle: ProductResult               # E2 x E2'


def product_xext_with_data(
    e: CrossedExtension, ep: CrossedExtension
) -> XExtProduct:
    """Binary product in the category of crossed extensions of C."""
    if e.c != ep.c:
        raise BaseMismatch("product requires the same base group")
    pb = pullback(e.p, ep.p)
    mid = direct_product(e.e2, ep.e2)
    n2p, npb = ep.e2.order, pb.group.order
    # boundaries land in the kernels of p and p', so every pair is in the pullback
    bnd = _hom(mid.group, pb.group,
               pb.pair_index(e.xm.boundary.map[:, None], ep.xm.boundary.map).ravel())
    act = (e.xm.action.act[pb.p1.map][:, :, None] * n2p
           + ep.xm.action.act[pb.p2.map][:, None, :])
    module = cmodule_product(e.module, ep.module).module
    j = _hom(module.coeff, mid.group, (e.j.map[:, None] * n2p + ep.j.map).ravel())
    result = _xext(j, _xmod(bnd, act.reshape(npb, -1)), compose(ep.p, pb.p2), module)
    return XExtProduct(xext=result, pb=pb, middle=mid)


def tensor_xext_with_data(
    e: CrossedExtension, ep: CrossedExtension
) -> tuple[CrossedExtension, PullbackResult, np.ndarray]:
    """The tensor, its E1 x_C E1', and cls[x1, x2], the class of (0, (x1, x2)).

    The product's pushforward along the codiagonal, fused: the coset of
    (b, (x1, x2)) holds (0, (x1, x2 + j'b)) and its least code has this form,
    so the middle is E2 x E2' modulo {(j b, -j' b)}, with the same labels.
    """
    if e.module != ep.module:
        raise ModuleMismatch("tensor requires the same kernel module")
    pb = pullback(e.p, ep.p)
    n2 = ep.e2.order
    normal = e.j.map * n2 + ep.e2.inv[ep.j.map]
    labels, proj, q_grp = _coset_quotient(e.e2, ep.e2, np.arange(e.e2.order * n2), normal)
    lx, lxp = np.divmod(labels, n2)
    bnd = _hom(q_grp, pb.group, pb.pair_index(e.xm.boundary.map[lx], ep.xm.boundary.map[lxp]))
    # (g, g') * (x, x') = (g * x, g' * x') is an automorphism, so it is constant
    # on cosets when it keeps the identity coset {(j b, -j' b)}
    act1, act2 = e.xm.action.act[pb.p1.map], ep.xm.action.act[pb.p2.map]
    nx, nxp = np.divmod(normal, n2)
    if proj[act1[:, nx] * n2 + act2[:, nxp]].any():
        raise ActionNotWellDefined("pushforward action is not constant on cosets")
    act = proj[act1[:, lx] * n2 + act2[:, lxp]]
    result = _xext(_hom(e.b, q_grp, proj[ep.j.map]), _xmod(bnd, act),
                   compose(ep.p, pb.p2), e.module)
    return result, pb, proj.reshape(e.e2.order, n2)


def tensor_xext(e: CrossedExtension, ep: CrossedExtension) -> CrossedExtension:
    """Fibrewise tensor: product followed by pushforward along the codiagonal."""
    return tensor_xext_with_data(e, ep)[0]


def inverse_xext(e: CrossedExtension) -> CrossedExtension:
    """Same boundary and action; kernel arrow negated."""
    j_star = _hom(e.b, e.e2, e.j.map[e.b.inv])         # B is abelian
    return _xext(j_star, e.xm, e.p, e.module)


# --- butterflies ----------------------------------------------------------


@dataclass(frozen=True)
class Butterfly:
    dom: CrossedExtension
    cod: CrossedExtension
    f_group: FiniteGroup
    kappa: GroupHom             # E2  -> F
    iota: GroupHom              # E2' -> F
    delta: GroupHom             # F -> E1
    gamma: GroupHom             # F -> E1'

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Butterfly)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.kappa == other.kappa
            and self.iota == other.iota
            and self.delta == other.delta
            and self.gamma == other.gamma
        )

    def __hash__(self) -> int:
        return hash((self.kappa, self.iota, self.delta, self.gamma))


@dataclass(frozen=True)
class ButterflyIso:
    dom: Butterfly
    cod: Butterfly
    sigma: GroupHom


def build_butterfly(
    dom: CrossedExtension,
    cod: CrossedExtension,
    f_group: FiniteGroup,
    kappa: GroupHom,
    iota: GroupHom,
    delta: GroupHom,
    gamma: GroupHom,
) -> Butterfly:
    if dom.c != cod.c:
        raise TypeMismatch("butterfly endpoints must share the base group")
    if (
        kappa.dom != dom.e2
        or iota.dom != cod.e2
        or kappa.cod != f_group
        or iota.cod != f_group
        or delta.dom != f_group
        or gamma.dom != f_group
        or delta.cod != dom.e1
        or gamma.cod != cod.e1
    ):
        raise TypeMismatch("butterfly arrows are not typed as in the diagram")

    if compose(delta, kappa) != dom.xm.boundary:
        raise ButterflyConditionViolation("i", "delta . kappa != boundary")
    if compose(gamma, iota) != cod.xm.boundary:
        raise ButterflyConditionViolation("i", "gamma . iota != boundary'")
    if compose(dom.p, delta) != compose(cod.p, gamma):
        raise ButterflyConditionViolation("i", "p . delta != p' . gamma")

    if not compose(gamma, kappa).is_zero():
        raise ButterflyConditionViolation("ii", "(kappa, gamma) is not a complex")
    if not is_short_exact(iota, delta):
        raise ButterflyConditionViolation(
            "ii", "(iota, delta) is not short exact"
        )

    # kappa(delta(f) * x) vs f + kappa(x) - f, and the same for iota
    bad = kappa.map[dom.xm.action.act[delta.map]] != f_group.conjugates(kappa.map)
    if bad.any():
        f, x = (int(i) for i in np.argwhere(bad)[0])
        raise ButterflyConditionViolation(
            "iii", f"kappa not pre-crossed at (f, x) = ({f}, {x})"
        )
    bad = iota.map[cod.xm.action.act[gamma.map]] != f_group.conjugates(iota.map)
    if bad.any():
        f, xp = (int(i) for i in np.argwhere(bad)[0])
        raise ButterflyConditionViolation(
            "iv", f"iota not pre-crossed at (f, x') = ({f}, {xp})"
        )
    return _butterfly(dom, cod, f_group, kappa, iota, delta, gamma)


def _butterfly(dom, cod, f_group, kappa, iota, delta, gamma) -> Butterfly:
    """A butterfly by construction; its four conditions are not checked."""
    return Butterfly(dom=dom, cod=cod, f_group=f_group,
                     kappa=kappa, iota=iota, delta=delta, gamma=gamma)


def butterfly_beta(b: Butterfly) -> CModuleMorphism:
    """The module morphism carried by a butterfly.

    Computed through the cooperator of the wings: its kernel projects
    bijectively onto the kernel of the upper extension, and the second
    component reads off beta.  Postcondition: kappa.j = iota.j'.(-beta).
    """
    try:
        sums = cooperator_sums(b.kappa, b.iota)
    except ImagesDoNotCommute as exc:
        raise CooperatorFails(str(exc)) from exc
    x, xp = np.nonzero(sums == 0)                       # the cooperator kernel, x sorted
    if (x[1:] == x[:-1]).any():
        raise CooperatorFails("cooperator kernel is not a graph over B")
    first = np.full(b.dom.e2.order, -1, dtype=np.int64)
    first[x] = xp
    in_bp = np.full(b.cod.e2.order + 1, -1, dtype=np.int64)     # in_bp[-1] = -1
    in_bp[b.cod.j.map] = np.arange(b.cod.b.order)
    mapping = in_bp[first[b.dom.j.map]]
    if (mapping < 0).any():
        raise CooperatorFails("kernel of the cooperator misses a B element")
    beta = _cmodule_morphism(b.dom.module, b.cod.module, mapping)
    lhs = compose(b.kappa, b.dom.j)
    rhs = compose(compose(b.iota, b.cod.j), negate(beta).hom)
    require(lhs == rhs, "beta postcondition kappa.j = iota.j'.(-beta) failed")
    return beta


def compose_butterflies(second: Butterfly, first: Butterfly) -> Butterfly:
    """second . first: the pullback of the legs over the shared middle,
    modulo the image of x |-> (iota x, kappa' x), built on its codes."""
    if first.cod != second.dom:
        raise TypeMismatch("butterflies are not composable")
    f1, f2, n = first.f_group, second.f_group, second.f_group.order
    a, b = pullback_pairs(first.gamma, second.delta)
    members, image = a * n + b, first.iota.map * n + second.kappa.map
    if not _is_normal_on_codes(f1, f2, members, image):
        raise TypeMismatch("identified middle image is not normal")
    labels, proj, q_grp = _coset_quotient(f1, f2, members, image)
    # (kappa(x), 0) and (0, iota'(x')) lie in the pullback: the wings are complexes
    kappa = _hom(first.kappa.dom, q_grp, proj[first.kappa.map * n])
    iota = _hom(second.iota.dom, q_grp, proj[second.iota.map])
    # delta kills iota(E2) and gamma' kills kappa'(E2): the legs read each least member
    delta = _hom(q_grp, first.delta.cod, first.delta.map[labels // n])
    gamma = _hom(q_grp, second.gamma.cod, second.gamma.map[labels % n])
    return _butterfly(first.dom, second.cod, q_grp, kappa, iota, delta, gamma)


def identity_butterfly(e: CrossedExtension) -> Butterfly:
    """F = E2 x| E1 with the groupoid legs and kernel-section wings."""
    gpd = associated_groupoid(e.xm)
    return _butterfly(e, e, gpd.total, kappa=gpd.ker_d_section, iota=gpd.ker_c_section,
                      delta=gpd.c, gamma=gpd.d)


def morphism_to_butterfly(m: XExtMorphism) -> Butterfly:
    """Butterfly class of a crossed extension morphism.

    F = E2' x| E1 with E1 acting through f1; the wings are
    kappa(x) = (-f2 x, bnd x) and iota(x') = (x', 0).
    """
    e, ep = m.dom, m.cod
    # E1 acts through f1; kappa and gamma are homs because (f2, f1) is a
    # crossed-module morphism and E2' is crossed over E1'
    sd = semidirect_product(GroupAction(e.e1, ep.e2, ep.xm.action.act[m.f1.map]))
    kappa = _hom(e.e2, sd.group,
                 ep.e2.inv[m.f2.map] * e.e1.order + e.xm.boundary.map)
    gamma = _hom(sd.group, ep.e1,
                 ep.e1.table[ep.xm.boundary.map[:, None], m.f1.map].ravel())
    bf = _butterfly(e, ep, sd.group, kappa, sd.inj_normal, sd.retraction, gamma)
    require(butterfly_beta(bf) == m.beta)
    return bf


def find_butterfly_iso(b1: Butterfly, b2: Butterfly) -> ButterflyIso | None:
    """First isomorphism of parallel butterflies, in deterministic order.

    The wing equations force sigma on the images of kappa and iota; the
    leg equations confine every other value to a small fibre, so the
    search propagates those constraints instead of enumerating all
    isomorphisms of the core groups.
    """
    if b1.dom != b2.dom or b1.cod != b2.cod:
        raise TypeMismatch("butterfly isomorphisms require parallel butterflies")
    f1, f2 = b1.f_group, b2.f_group
    if f1.order != f2.order:
        return None
    n = f1.order
    # sigma must keep both legs: compare (delta, gamma) as one label
    leg1 = b1.delta.map * b1.gamma.cod.order + b1.gamma.map
    leg2 = b2.delta.map * b2.gamma.cod.order + b2.gamma.map

    def close(sig: np.ndarray | None) -> np.ndarray | None:
        # the partial map sig closed under +, or None when the closure is not
        # an injective map that keeps the legs; the closure is the subgroup
        # generated, so it does not depend on the order of the values
        while sig is not None:
            k = np.flatnonzero(sig >= 0)
            closed = factor_through(f1.table[k[:, None], k].ravel(),
                                    f2.table[sig[k][:, None], sig[k]].ravel(), n)
            if closed is None:
                return None
            known = np.flatnonzero(closed >= 0)
            if (leg1[known] != leg2[closed[known]]).any() or np.bincount(closed[known]).max() > 1:
                return None
            if known.size == k.size:
                return closed
            sig = closed
        return None

    def search(sig: np.ndarray) -> np.ndarray | None:
        pending = np.flatnonzero(sig < 0)
        if not pending.size:
            return sig
        a = pending[0]
        used = np.zeros(n, dtype=bool)
        used[sig[sig >= 0]] = True
        for b in np.flatnonzero((leg2 == leg1[a]) & ~used):
            trial = sig.copy()
            trial[a] = b
            trial = close(trial)
            found = None if trial is None else search(trial)
            if found is not None:
                return found
        return None

    seeds = np.concatenate([[0], b1.kappa.map, b1.iota.map])
    images = np.concatenate([[0], b2.kappa.map, b2.iota.map])
    sig = close(factor_through(seeds, images, n))
    sig = None if sig is None else search(sig)
    if sig is None:
        return None
    sigma = _hom(f1, f2, sig)          # closed under +, so a homomorphism
    require(
        compose(sigma, b1.iota) == b2.iota
        and compose(sigma, b1.kappa) == b2.kappa
        and compose(b2.gamma, sigma) == b1.gamma
        and compose(b2.delta, sigma) == b1.delta
    )
    return ButterflyIso(dom=b1, cod=b2, sigma=sigma)


def is_flippable(b: Butterfly) -> bool:
    """True iff the complex diagonal (kappa, gamma) is also short exact."""
    return is_short_exact(b.kappa, b.gamma)


def flip(b: Butterfly) -> Butterfly:
    if not is_flippable(b):
        raise NotFlippable("(kappa, gamma) is not short exact")
    return _butterfly(b.cod, b.dom, b.f_group,
                      kappa=b.iota, iota=b.kappa, delta=b.gamma, gamma=b.delta)


# --- loops on the unit object ---------------------------------------------


def phi(ext: AbelianExtension) -> Butterfly:
    """The loop butterfly on the unit carried by an abelian extension."""
    unit = unit_xext(ext.module)
    b_grp = ext.kernel_arrow.dom                        # abelian
    kappa = _hom(b_grp, ext.middle, ext.kernel_arrow.map[b_grp.inv])
    bf = _butterfly(unit, unit, ext.middle, kappa=kappa, iota=ext.kernel_arrow,
                    delta=ext.quotient_arrow, gamma=ext.quotient_arrow)
    require(butterfly_beta(bf).is_identity())
    return bf


def is_pi1_shape(b: Butterfly) -> bool:
    """Loop shape: endpoints are the unit object and the two legs agree."""
    unit = unit_xext(b.dom.module)
    return b.dom == unit and b.cod == unit and b.delta == b.gamma


def loop_to_extension(b: Butterfly) -> AbelianExtension:
    """Extract the abelian extension (iota, gamma) from a loop butterfly."""
    if not is_pi1_shape(b):
        raise NotPi1Shape("butterfly is not a loop on the unit object")
    ext = build_extension(b.iota, b.gamma)
    if ext.module != b.dom.module:
        raise NotPi1Shape("extracted extension induces the wrong module")
    return ext


# --- the explicit inverse witness -----------------------------------------


def tensor_unit_comparison(e: CrossedExtension) -> XExtMorphism:
    """Canonical vertical comparison E -> E (x) I over the identity."""
    unit = unit_xext(e.module)
    tensored, pb, cls = tensor_xext_with_data(e, unit)
    f1 = _hom(e.e1, pb.group, pb.pair_index(np.arange(e.e1.order), e.p.map))
    f2 = _hom(e.e2, tensored.e2, cls[:, 0])
    return XExtMorphism(e, tensored, identity_morphism(e.module), f2, f1)


def inverse_witness(e: CrossedExtension) -> Butterfly:
    """Flippable butterfly from E (x) E* to the unit, with F = E2 x| E1.

    The tensor is identified with the kernel of the composite leg of the
    associated groupoid through the cooperator of the two kernel
    sections; the wings are the canonical inclusion and the unit-kernel
    embedding.
    """
    star = inverse_xext(e)
    tensored, pb, cls = tensor_xext_with_data(e, star)
    unit = unit_xext(e.module)

    gpd = associated_groupoid(e.xm)
    sd = gpd.total
    ng = e.e1.order
    pc = compose(e.p, gpd.c)
    k_sub = kernel(pc)
    # p.c = p.d on the groupoid, so (c(f), d(f)) is in E1 x_C E1
    cd = _hom(sd, pb.group, pb.pair_index(gpd.c.map, gpd.d.map))

    # transport the canonical tensor middle onto Ker(p . c): the class of
    # (b, (x1, x2)) goes to (-j(b), 0) + (-x1 + bnd(x1) * x2, bnd(x1)), the
    # cooperator of the two kernel sections of the groupoid
    e2, bnd = e.e2, e.xm.boundary.map
    t2 = tensored.e2
    target = t2.table[tensored.j.map[:, None], cls.ravel()]     # [b, (x1, x2)]
    coop = e2.table[e2.inv[:, None], e.xm.action.act[bnd]] * ng + bnd[:, None]
    w = sd.table[np.ix_(e2.inv[e.j.map] * ng, coop.ravel())]
    k_pos = np.full(sd.order, -1, dtype=np.int64)
    k_pos[k_sub.embedding.map] = np.arange(k_sub.group.order)
    v2_map = factor_through(target.ravel(), k_pos[w].ravel(), t2.order)
    if v2_map is None:
        raise ActionNotWellDefined("tensor-to-groupoid comparison not constant on cosets")
    v2 = _hom(t2, k_sub.group, v2_map)
    require(v2.is_injective() and v2.is_surjective())

    kappa = compose(k_sub.embedding, v2)
    iota = compose(gpd.ker_c_section, e.j)
    bf = _butterfly(tensored, unit, sd, kappa=kappa, iota=iota, delta=cd, gamma=pc)
    require(is_flippable(bf))
    require(butterfly_beta(bf).is_identity())
    return bf
