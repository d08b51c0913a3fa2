"""Universal-property checkers for cocartesian lifts.

Exhaustive at desk scale: morphism sets are enumerated outright, so a
passed check is a proof for the instance at hand.
"""

from __future__ import annotations

import numpy as np

from .actions import CModuleMorphism, compose_morphisms, equivariance_failures
from .butterflies import CrossedExtension, XExtMorphism
from .errors import ModuleMismatch, require
from .extensions import AbelianExtension, ExtensionLift, extension_morphisms_over
from .groups import all_homs, close_under_group, compose


def check_cocartesian_extension(
    lift: ExtensionLift,
    dom: AbelianExtension,
    g: AbelianExtension,
    beta2: CModuleMorphism,
) -> bool:
    """Every morphism dom -> g over beta2.beta factors once through the lift."""
    total = compose_morphisms(beta2, lift.beta)
    tests = extension_morphisms_over(dom, g, total)
    candidates = extension_morphisms_over(lift.target, g, beta2)
    for h in tests:
        matches = [u for u in candidates if compose(u, lift.mid) == h]
        if len(matches) != 1:
            return False
    return True


def xext_morphisms_over(
    e: CrossedExtension, g: CrossedExtension, beta: CModuleMorphism
) -> list[XExtMorphism]:
    """All crossed-extension morphisms over beta, sorted by (f1, f2).

    The f1 rows of all_homs are kept where p'.f1 = p and the f2 rows where
    f2.j = j'.beta; every remaining pair is checked for bnd'.f2 = f1.bnd
    and for equivariance as table comparisons.
    """
    if beta.dom != e.module or beta.cod != g.module:
        raise ModuleMismatch("beta must run between the two kernel modules")
    h1, h2 = all_homs(e.e1, g.e1), all_homs(e.e2, g.e2)
    m1, m2 = (np.asarray([f.map for f in homs]) for homs in (h1, h2))
    k1 = np.flatnonzero((g.p.map[m1] == e.p.map).all(axis=1))
    k2 = np.flatnonzero((m2[:, e.j.map] == g.j.map[beta.hom.map]).all(axis=1))
    square = m1[k1][:, None, e.xm.boundary.map] == g.xm.boundary.map[m2[k2]]
    p1, p2 = np.nonzero(square.all(axis=2))
    i1, i2 = k1[p1], k2[p2]
    bad = equivariance_failures(e.xm.action, g.xm.action, m2[i2], m1[i1])
    return [XExtMorphism(dom=e, cod=g, beta=beta, f2=h2[b], f1=h1[a])
            for a, b, fails in zip(i1, i2, bad.any(axis=(1, 2))) if not fails]


def check_cocartesian_xext(
    lift: XExtMorphism, g: CrossedExtension, beta2: CModuleMorphism
) -> bool:
    """Cocartesian universal property of a crossed-extension lift."""
    total = compose_morphisms(beta2, lift.beta)
    tests = xext_morphisms_over(lift.dom, g, total)
    candidates = xext_morphisms_over(lift.cod, g, beta2)
    for h in tests:
        matches = [
            u
            for u in candidates
            if compose(u.f2, lift.f2) == h.f2 and compose(u.f1, lift.f1) == h.f1
        ]
        if len(matches) != 1:
            return False
    return True


def jointly_generate_square(b) -> bool:
    """(0,1) and (1,-1) images jointly generate B x B."""
    n = b.order
    from .groups import direct_product

    prod = direct_product(b, b)
    seed = [0 * n + x for x in b.elements()]
    seed += [x * n + b.neg(x) for x in b.elements()]
    return len(close_under_group(prod.group, seed)) == prod.group.order


def extension_product(
    a: AbelianExtension, b: AbelianExtension
) -> AbelianExtension:
    """Fibre product over the shared base: middle E x_C E', kernel B x B'."""
    from .actions import cmodule_product
    from .extensions import build_extension
    from .groups import build_hom, pullback

    if a.quotient_arrow.cod != b.quotient_arrow.cod:
        raise ModuleMismatch("fibre product requires the same base group")
    pm = cmodule_product(a.module, b.module)
    pb = pullback(a.quotient_arrow, b.quotient_arrow)
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    kappa = build_hom(
        pm.module.coeff, pb.group,
        [pair_pos[(a.kernel_arrow(x), b.kernel_arrow(y))]
         for x in a.kernel_arrow.dom.elements()
         for y in b.kernel_arrow.dom.elements()],
    )
    gamma = compose(a.quotient_arrow, pb.p1)
    ext = build_extension(kappa, gamma)
    require(ext.module == pm.module)
    return ext


def product_of_lifts(l1: ExtensionLift, l2: ExtensionLift) -> ExtensionLift:
    """The fibre-product square of two extension lifts."""
    from .actions import cmodule_morphism, cmodule_product
    from .groups import build_hom, pullback

    dom_ext = extension_product(l1.source, l2.source)
    target_ext = extension_product(l1.target, l2.target)
    pm_dom = cmodule_product(l1.beta.dom, l2.beta.dom)
    pm_cod = cmodule_product(l1.beta.cod, l2.beta.cod)
    mapping = np.asarray(
        [l1.beta(x) * l2.beta.cod.coeff.order + l2.beta(y)
         for x in l1.beta.dom.coeff.elements()
         for y in l2.beta.dom.coeff.elements()]
    )
    beta = cmodule_morphism(pm_dom.module, pm_cod.module, mapping)
    pb_dom = pullback(l1.source.quotient_arrow, l2.source.quotient_arrow)
    pb_tgt = pullback(l1.target.quotient_arrow, l2.target.quotient_arrow)
    tgt_pos = {
        (pb_tgt.p1(i), pb_tgt.p2(i)): i for i in range(pb_tgt.group.order)
    }
    mid = build_hom(
        dom_ext.middle, target_ext.middle,
        [tgt_pos[(l1.mid(pb_dom.p1(i)), l2.mid(pb_dom.p2(i)))]
         for i in range(pb_dom.group.order)],
    )
    return ExtensionLift(source=dom_ext, beta=beta, mid=mid, target=target_ext)


def composition_square(
    e: AbelianExtension, ep: AbelianExtension
) -> ExtensionLift:
    """The square arising inside the composite of two loop butterflies.

    Composing the loops of e and ep forms the pullback P = E x_C E' and
    quotients by the antidiagonal copy of B; the claim under test is that
    the quotient map is the cocartesian lift of the product-kernel
    extension along the codiagonal.
    """
    from .actions import cmodule_product, pair_codiagonal
    from .extensions import build_extension
    from .groups import build_hom, hom_from_cosets, pullback, quotient_by

    if e.module != ep.module:
        raise ModuleMismatch("loops compose only over a shared module")
    k1, g1 = e.kernel_arrow, e.quotient_arrow
    k2, g2 = ep.kernel_arrow, ep.quotient_arrow
    pb = pullback(g1, g2)
    pair_pos = {(pb.p1(i), pb.p2(i)): i for i in range(pb.group.order)}
    b_grp = k1.dom
    pm = cmodule_product(e.module, ep.module)
    nb = b_grp.order
    kappa_prod = build_hom(
        pm.module.coeff, pb.group,
        [pair_pos[(k1(x), k2(y))]
         for x in b_grp.elements() for y in b_grp.elements()],
    )
    gamma_prod = compose(g1, pb.p1)
    dom_ext = build_extension(kappa_prod, gamma_prod)
    anti = [pair_pos[(k1(b), k2.cod.neg(k2(b)))] for b in b_grp.elements()]
    q_grp, proj = quotient_by(pb.group, anti)
    kappa_new = build_hom(
        b_grp, q_grp, [proj(pair_pos[(0, k2(b))]) for b in b_grp.elements()]
    )
    gamma_new = hom_from_cosets(proj, gamma_prod)
    target = build_extension(kappa_new, gamma_new)
    beta = pair_codiagonal(pm, e.module)
    return ExtensionLift(source=dom_ext, beta=beta, mid=proj, target=target)
