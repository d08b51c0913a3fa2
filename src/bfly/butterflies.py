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
    build_action,
    cmodule_morphism,
    cmodule_product,
    equivariance_failures,
    identity_morphism,
    induced_module,
    pair_codiagonal,
)
from .crossed import (
    CrossedModule,
    associated_groupoid,
    build_crossed_module,
)
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
    PullbackResult,
    build_hom,
    compose,
    cooperator,
    direct_product,
    hom_from_cosets,
    identity_hom,
    is_normal,
    is_short_exact,
    kernel,
    pullback,
    quotient_by,
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
        return (
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
    return CrossedExtension(j=j, xm=xm, p=p, module=module)


def unit_xext(module: CModule) -> CrossedExtension:
    """I: B = B -0-> C = C, the monoidal unit of the fibre over the module."""
    b_grp, c_grp = module.coeff, module.base
    xm = build_crossed_module(zero_hom(b_grp, c_grp), module.action)
    return build_crossed_extension(
        identity_hom(b_grp), xm, identity_hom(c_grp)
    )


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

    The plain direct product suffices here because the kernel is central
    in E2, so the identified subgroup is automatically normal.
    """
    if beta.dom != e.module:
        raise ModuleMismatch("beta must start at the extension's module")
    bp = beta.cod.coeff
    e2 = e.e2
    prod = direct_product(bp, e2)
    n2 = e2.order
    ident = [beta(b) * n2 + e2.neg(e.j(b)) for b in e.b.elements()]
    q_grp, proj = quotient_by(prod.group, ident)
    j_new = build_hom(bp, q_grp, [proj(b * n2) for b in bp.elements()])
    bnd_total = build_hom(
        prod.group,
        e.e1,
        [e.xm.boundary(x) for _ in bp.elements() for x in e2.elements()],
    )
    bnd_new = hom_from_cosets(proj, bnd_total)
    act = np.full((e.e1.order, q_grp.order), -1, dtype=np.int64)
    for g in e.e1.elements():
        for i in range(prod.group.order):
            b, x = divmod(i, n2)
            v = proj(beta.cod.xi(e.p(g), b) * n2 + e.xm.act(g, x))
            tgt = proj(i)
            if act[g, tgt] < 0:
                act[g, tgt] = v
            elif act[g, tgt] != v:
                raise ActionNotWellDefined(
                    "pushforward action is not constant on cosets"
                )
    xm_new = build_crossed_module(bnd_new, build_action(e.e1, q_grp, act))
    result = build_crossed_extension(j_new, xm_new, e.p)
    if result.module != beta.cod:
        raise ModuleMismatch("pushforward does not land in the target module")
    f2 = build_hom(e2, q_grp, [proj(x) for x in e2.elements()])
    lift = build_xext_morphism(e, result, beta, f2, identity_hom(e.e1))
    return result, lift


@dataclass(frozen=True)
class XExtProduct:
    xext: CrossedExtension
    pb: PullbackResult                  # E1 x_C E1'
    middle_pair_index: dict             # (x, x') -> product middle index
    proj1: XExtMorphism | None = None


def product_xext_with_data(
    e: CrossedExtension, ep: CrossedExtension
) -> XExtProduct:
    """Binary product in the category of crossed extensions of C."""
    if e.c != ep.c:
        raise BaseMismatch("product requires the same base group")
    pb = pullback(e.p, ep.p)
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    mid = direct_product(e.e2, ep.e2)
    n2p = ep.e2.order
    bnd = build_hom(
        mid.group,
        pb.group,
        [
            pair_pos[(e.xm.boundary(x), ep.xm.boundary(xp))]
            for x in e.e2.elements()
            for xp in ep.e2.elements()
        ],
    )
    act = np.zeros((pb.group.order, mid.group.order), dtype=np.int64)
    for i in range(pb.group.order):
        g, gp = pb.p1(i), pb.p2(i)
        for x in e.e2.elements():
            for xp in ep.e2.elements():
                act[i, x * n2p + xp] = e.xm.act(g, x) * n2p + ep.xm.act(gp, xp)
    xm = build_crossed_module(bnd, build_action(pb.group, mid.group, act))
    bprod = direct_product(e.b, ep.b)
    nbp = ep.b.order
    j = build_hom(
        bprod.group,
        mid.group,
        [
            e.j(b) * n2p + ep.j(bq)
            for b in e.b.elements()
            for bq in ep.b.elements()
        ],
    )
    p_new = compose(ep.p, pb.p2)
    result = build_crossed_extension(j, xm, p_new)
    expected = cmodule_product(e.module, ep.module).module
    if result.module != expected:
        raise ModuleMismatch("product module is not the module product")
    mid_index = {
        (x, xp): x * n2p + xp
        for x in e.e2.elements()
        for xp in ep.e2.elements()
    }
    return XExtProduct(xext=result, pb=pb, middle_pair_index=mid_index)


def tensor_xext_with_data(e: CrossedExtension, ep: CrossedExtension):
    if e.module != ep.module:
        raise ModuleMismatch("tensor requires the same kernel module")
    data = product_xext_with_data(e, ep)
    prod_module = cmodule_product(e.module, ep.module)
    codiag = pair_codiagonal(prod_module, e.module)
    result, lift = pushforward_xext(data.xext, codiag)
    return result, data, lift


def tensor_xext(e: CrossedExtension, ep: CrossedExtension) -> CrossedExtension:
    """Fibrewise tensor: product followed by pushforward along the codiagonal."""
    return tensor_xext_with_data(e, ep)[0]


def inverse_xext(e: CrossedExtension) -> CrossedExtension:
    """Same boundary and action; kernel arrow negated."""
    j_star = build_hom(e.b, e.e2, e.j.map[e.b.inv])
    return build_crossed_extension(j_star, e.xm, e.p)


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

    for f in f_group.elements():
        df = delta(f)
        for x in dom.e2.elements():
            if kappa(dom.xm.act(df, x)) != f_group.conj(f, kappa(x)):
                raise ButterflyConditionViolation(
                    "iii", f"kappa not pre-crossed at (f, x) = ({f}, {x})"
                )
    for f in f_group.elements():
        gf = gamma(f)
        for xp in cod.e2.elements():
            if iota(cod.xm.act(gf, xp)) != f_group.conj(f, iota(xp)):
                raise ButterflyConditionViolation(
                    "iv", f"iota not pre-crossed at (f, x') = ({f}, {xp})"
                )
    return Butterfly(
        dom=dom, cod=cod, f_group=f_group,
        kappa=kappa, iota=iota, delta=delta, gamma=gamma,
    )


def butterfly_beta(b: Butterfly) -> CModuleMorphism:
    """The module morphism carried by a butterfly.

    Computed through the cooperator of the wings: its kernel projects
    bijectively onto the kernel of the upper extension, and the second
    component reads off beta.  Postcondition: kappa.j = iota.j'.(-beta).
    """
    try:
        coop = cooperator(b.kappa, b.iota)
    except ImagesDoNotCommute as exc:
        raise CooperatorFails(str(exc)) from exc
    n_iota = b.iota.dom.order
    ker_elems = coop.kernel_elements()
    first = {}
    for idx in ker_elems:
        x, xp = divmod(idx, n_iota)
        if x in first:
            raise CooperatorFails("cooperator kernel is not a graph over B")
        first[x] = xp
    in_bp = {b.cod.j(v): v for v in b.cod.b.elements()}
    mapping = np.zeros(b.dom.b.order, dtype=np.int64)
    for bb in b.dom.b.elements():
        x = b.dom.j(bb)
        if x not in first or first[x] not in in_bp:
            raise CooperatorFails("kernel of the cooperator misses a B element")
        mapping[bb] = in_bp[first[x]]
    beta = cmodule_morphism(b.dom.module, b.cod.module, mapping)
    from .actions import negate

    lhs = compose(b.kappa, b.dom.j)
    rhs = compose(compose(b.iota, b.cod.j), negate(beta).hom)
    require(lhs == rhs, "beta postcondition kappa.j = iota.j'.(-beta) failed")
    return beta


def compose_butterflies(second: Butterfly, first: Butterfly) -> Butterfly:
    """second . first, via the pullback of the legs over the shared middle."""
    if first.cod != second.dom:
        raise TypeMismatch("butterflies are not composable")
    pb = pullback(first.gamma, second.delta)
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    mid = first.cod.e2
    n_elems = [
        pair_pos[(first.iota(xp), second.kappa(xp))] for xp in mid.elements()
    ]
    if not is_normal(pb.group, set(n_elems)):
        raise TypeMismatch("identified middle image is not normal")
    q_grp, proj = quotient_by(pb.group, n_elems)
    kappa = build_hom(
        first.kappa.dom,
        q_grp,
        [proj(pair_pos[(first.kappa(x), 0)]) for x in first.kappa.dom.elements()],
    )
    iota = build_hom(
        second.iota.dom,
        q_grp,
        [proj(pair_pos[(0, second.iota(x))]) for x in second.iota.dom.elements()],
    )
    delta = hom_from_cosets(proj, compose(first.delta, pb.p1))
    gamma = hom_from_cosets(proj, compose(second.gamma, pb.p2))
    return build_butterfly(
        first.dom, second.cod, q_grp, kappa, iota, delta, gamma
    )


def identity_butterfly(e: CrossedExtension) -> Butterfly:
    """F = E2 x| E1 with the groupoid legs and kernel-section wings."""
    gpd = associated_groupoid(e.xm)
    return build_butterfly(
        e, e, gpd.total,
        kappa=gpd.ker_d_section,
        iota=gpd.ker_c_section,
        delta=gpd.c,
        gamma=gpd.d,
    )


def morphism_to_butterfly(m: XExtMorphism) -> Butterfly:
    """Butterfly class of a crossed extension morphism.

    F = E2' x| E1 with E1 acting through f1; the wings are
    kappa(x) = (-f2 x, bnd x) and iota(x') = (x', 0).
    """
    e, ep = m.dom, m.cod
    act = np.asarray(
        [[ep.xm.act(m.f1(g), xp) for xp in ep.e2.elements()]
         for g in e.e1.elements()]
    )
    sd = semidirect_product(build_action(e.e1, ep.e2, act))
    ng = e.e1.order
    kappa = build_hom(
        e.e2, sd.group,
        [ep.e2.neg(m.f2(x)) * ng + e.xm.boundary(x) for x in e.e2.elements()],
    )
    iota = sd.inj_normal
    delta = sd.retraction
    gamma = build_hom(
        sd.group, ep.e1,
        [ep.e1.add(ep.xm.boundary(xp), m.f1(g))
         for xp in ep.e2.elements() for g in e.e1.elements()],
    )
    bf = build_butterfly(e, ep, sd.group, kappa, iota, delta, gamma)
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
    sig = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)

    fibres: dict[tuple[int, int], list[int]] = {}
    for f in f2.elements():
        fibres.setdefault((b2.delta(f), b2.gamma(f)), []).append(f)

    def assign(a: int, b: int, trail: list[int]) -> bool:
        # set sig[a] = b and close under multiplication with known values
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            if sig[a] >= 0:
                if sig[a] != b:
                    return False
                continue
            if used[b]:
                return False
            if (b1.delta(a), b1.gamma(a)) != (b2.delta(b), b2.gamma(b)):
                return False
            sig[a] = b
            used[b] = True
            trail.append(a)
            for x in range(n):
                if sig[x] >= 0:
                    queue.append((f1.add(a, x), f2.add(b, sig[x])))
                    if x != a:
                        queue.append((f1.add(x, a), f2.add(sig[x], b)))
        return True

    trail0: list[int] = []
    ok = assign(0, 0, trail0)
    for x in b1.kappa.dom.elements():
        ok = ok and assign(b1.kappa(x), b2.kappa(x), trail0)
    for x in b1.iota.dom.elements():
        ok = ok and assign(b1.iota(x), b2.iota(x), trail0)
    if not ok:
        return None

    def search() -> bool:
        pending = [a for a in range(n) if sig[a] < 0]
        if not pending:
            return True
        a = pending[0]
        for b in fibres.get((b1.delta(a), b1.gamma(a)), []):
            if used[b]:
                continue
            trail: list[int] = []
            if assign(a, b, trail) and search():
                return True
            for t in trail:
                used[sig[t]] = False
                sig[t] = -1
        return False

    if not search():
        return None
    sigma = build_hom(f1, f2, sig)
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
    return build_butterfly(
        b.cod, b.dom, b.f_group,
        kappa=b.iota, iota=b.kappa, delta=b.gamma, gamma=b.delta,
    )


# --- loops on the unit object ---------------------------------------------


def phi(ext: AbelianExtension) -> Butterfly:
    """The loop butterfly on the unit carried by an abelian extension."""
    unit = unit_xext(ext.module)
    kappa = build_hom(
        ext.kernel_arrow.dom,
        ext.middle,
        ext.kernel_arrow.map[ext.kernel_arrow.dom.inv],
    )
    bf = build_butterfly(
        unit, unit, ext.middle,
        kappa=kappa,
        iota=ext.kernel_arrow,
        delta=ext.quotient_arrow,
        gamma=ext.quotient_arrow,
    )
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
    tensored, data, lift = tensor_xext_with_data(e, unit)
    pair_pos = {
        (data.pb.p1(i), data.pb.p2(i)): i for i in range(data.pb.group.order)
    }
    f1 = build_hom(
        e.e1, data.pb.group, [pair_pos[(g, e.p(g))] for g in e.e1.elements()]
    )
    f2 = build_hom(
        e.e2, tensored.e2,
        [lift.f2(data.middle_pair_index[(x, 0)]) for x in e.e2.elements()],
    )
    return build_xext_morphism(
        e, tensored, identity_morphism(e.module), f2, f1
    )


def inverse_witness(e: CrossedExtension) -> Butterfly:
    """Flippable butterfly from E (x) E* to the unit, with F = E2 x| E1.

    The tensor is identified with the kernel of the composite leg of the
    associated groupoid through the cooperator of the two kernel
    sections; the wings are the canonical inclusion and the unit-kernel
    embedding.
    """
    star = inverse_xext(e)
    tensored, data, lift = tensor_xext_with_data(e, star)
    unit = unit_xext(e.module)

    gpd = associated_groupoid(e.xm)
    sd = gpd.total
    ng = e.e1.order
    pc = compose(e.p, gpd.c)
    k_sub = kernel(pc)
    pb = data.pb                          # E1 x_C E1, identical labeling
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    cd = build_hom(
        sd, pb.group,
        [pair_pos[(gpd.c(f), gpd.d(f))] for f in sd.elements()],
    )

    e2 = e.e2
    bnd = e.xm.boundary

    def phi_pair(x1: int, x2: int) -> int:
        # cooperator of the two kernel sections of the groupoid
        return e2.add(e2.neg(x1), e.xm.act(bnd(x1), x2)) * ng + bnd(x1)

    # transport the canonical tensor middle onto Ker(p . c)
    t2 = tensored.e2
    n_mid = e2.order * e2.order
    k_pos = {w: i for i, w in enumerate(k_sub.elements)}
    v2_map = np.full(t2.order, -1, dtype=np.int64)
    for i in range(e.b.order * n_mid):
        bb, pair = divmod(i, n_mid)
        x1, x2 = divmod(pair, e2.order)
        target = _pushforward_class(tensored, lift, data, bb, x1, x2)
        w = sd.add(e2.neg(e.j(bb)) * ng + 0, phi_pair(x1, x2))
        widx = k_pos[w]
        if v2_map[target] < 0:
            v2_map[target] = widx
        elif v2_map[target] != widx:
            raise ActionNotWellDefined(
                "tensor-to-groupoid comparison not constant on cosets"
            )
    v2 = build_hom(t2, k_sub.group, v2_map)
    require(v2.is_injective() and v2.is_surjective())

    kappa = compose(k_sub.embedding, v2)
    iota = build_hom(
        e.b, sd, [e.j(bb) * ng + 0 for bb in e.b.elements()]
    )
    bf = build_butterfly(
        tensored, unit, sd,
        kappa=kappa, iota=iota, delta=cd, gamma=pc,
    )
    require(is_flippable(bf))
    require(butterfly_beta(bf).is_identity())
    return bf


def _pushforward_class(
    tensored: CrossedExtension, lift: XExtMorphism, data: XExtProduct,
    bb: int, x1: int, x2: int,
) -> int:
    """Class of (b, (x1, x2)) in the tensor middle via the lift and j."""
    pair = data.middle_pair_index[(x1, x2)]
    return tensored.e2.add(tensored.j(bb), lift.f2(pair))
