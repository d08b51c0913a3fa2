"""Universal-property checkers for cocartesian lifts.

Exhaustive at desk scale: morphism sets are enumerated outright, so a
passed check is a proof for the instance at hand.
"""

from __future__ import annotations

import numpy as np

from .actions import CModuleMorphism, compose_morphisms, equivariance_failures
from .butterflies import CrossedExtension, XExtMorphism
from .errors import ModuleMismatch
# extension_morphisms_over is re-exported here
from .extensions import AbelianExtension, ExtensionLift, _morphisms_over, extension_morphisms_over
from .groups import all_homs, close_under_group, compose


def check_cocartesian_extension(
    lift: ExtensionLift,
    dom: AbelianExtension,
    g: AbelianExtension,
    beta2s: list[CModuleMorphism],
) -> list[bool]:
    """For each beta2 of the family: every morphism dom -> g over
    beta2.beta factors once through the lift.

    The tests over every beta2.beta and the candidates over every beta2 are
    one search each (``extensions._morphisms_over``), and the factorisations
    are compared on value tables.
    """
    totals = [compose_morphisms(beta2, lift.beta) for beta2 in beta2s]
    tw, tests = _morphisms_over(dom, g, totals)
    cw, candidates = _morphisms_over(lift.target, g, beta2s)
    composites = candidates[:, lift.mid.map]
    # a square that starts elsewhere fails wherever there is a test
    same = lift.mid.dom == dom.middle
    return [not (tw == k).any() or same and _factor_once(tests[tw == k], composites[cw == k])
            for k in range(len(beta2s))]


def _factor_once(tests, composites) -> bool:
    """Every test row equals exactly one composite row."""
    if not len(tests):
        return True
    if not len(composites):
        return False
    matches = (np.asarray(tests)[:, None] == np.asarray(composites)[None]).all(axis=2)
    return bool((matches.sum(axis=1) == 1).all())


def xext_morphisms_over(
    e: CrossedExtension, g: CrossedExtension, betas: list[CModuleMorphism]
) -> list[list[XExtMorphism]]:
    """For each beta of the family, all crossed-extension morphisms over it,
    sorted by (f1, f2).

    The f1 rows of all_homs are kept where p'.f1 = p and the f2 rows where
    f2.j = j'.beta for some beta; every remaining pair is checked once for
    bnd'.f2 = f1.bnd and for equivariance as table comparisons, and each
    beta keeps the pairs whose f2 it admits.
    """
    if any(beta.dom != e.module or beta.cod != g.module for beta in betas):
        raise ModuleMismatch("beta must run between the two kernel modules")
    h1, h2 = all_homs(e.e1, g.e1), all_homs(e.e2, g.e2)
    m1, m2 = (np.asarray([f.map for f in homs]) for homs in (h1, h2))
    k1 = np.flatnonzero((g.p.map[m1] == e.p.map).all(axis=1))
    over = np.array([(m2[:, e.j.map] == g.j.map[beta.hom.map]).all(axis=1)
                     for beta in betas], dtype=bool).reshape(len(betas), len(h2))
    k2 = np.flatnonzero(over.any(axis=0))
    square = m1[k1][:, None, e.xm.boundary.map] == g.xm.boundary.map[m2[k2]]
    p1, p2 = np.nonzero(square.all(axis=2))
    i1, i2 = k1[p1], k2[p2]
    good = ~equivariance_failures(e.xm.action, g.xm.action, m2[i2], m1[i1]).any(axis=(1, 2))
    i1, i2 = i1[good], i2[good]
    return [[XExtMorphism(dom=e, cod=g, beta=beta, f2=h2[b], f1=h1[a])
             for a, b in zip(i1[keep], i2[keep])]
            for beta, keep in zip(betas, over[:, i2])]


def check_cocartesian_xext(
    lift: XExtMorphism, g: CrossedExtension, beta2s: list[CModuleMorphism]
) -> list[bool]:
    """For each beta2 of the family, the cocartesian universal property of a
    crossed-extension lift: the tests over every beta2.beta and the
    candidates over every beta2 are one search each."""
    totals = [compose_morphisms(beta2, lift.beta) for beta2 in beta2s]
    tests = xext_morphisms_over(lift.dom, g, totals)
    candidates = xext_morphisms_over(lift.cod, g, beta2s)
    return [_factor_once(
        [np.concatenate([h.f2.map, h.f1.map]) for h in hs],
        [np.concatenate([u.f2.map[lift.f2.map], u.f1.map[lift.f1.map]]) for u in us],
    ) for hs, us in zip(tests, candidates)]


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
    return _fibre_product(a, b)[0]


def _fibre_product(a: AbelianExtension, b: AbelianExtension):
    """The fibre product extension, its pullback and its kernel module product."""
    from .actions import cmodule_product
    from .extensions import _extension
    from .groups import _hom, pullback

    if a.quotient_arrow.cod != b.quotient_arrow.cod:
        raise ModuleMismatch("fibre product requires the same base group")
    pm = cmodule_product(a.module, b.module)
    pb = pullback(a.quotient_arrow, b.quotient_arrow)
    kappa = _hom(pm.module.coeff, pb.group,
                 pb.pair_index(a.kernel_arrow.map[:, None], b.kernel_arrow.map).ravel())
    return _extension(kappa, compose(a.quotient_arrow, pb.p1), pm.module), pb, pm


def product_of_lifts(l1: ExtensionLift, l2: ExtensionLift) -> ExtensionLift:
    """The fibre-product square of two extension lifts."""
    from .actions import _cmodule_morphism
    from .groups import _hom

    dom_ext, pb_dom, _ = _fibre_product(l1.source, l2.source)
    target_ext, pb_tgt, _ = _fibre_product(l1.target, l2.target)
    mapping = l1.beta.hom.map[:, None] * l2.beta.cod.coeff.order + l2.beta.hom.map
    beta = _cmodule_morphism(dom_ext.module, target_ext.module, mapping.ravel())
    mid = _hom(dom_ext.middle, target_ext.middle,
               pb_tgt.pair_index(l1.mid.map[pb_dom.p1.map], l2.mid.map[pb_dom.p2.map]))
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
    from .actions import pair_codiagonal
    from .extensions import _baer_quotient
    from .groups import _hom

    dom_ext, pb, pm = _fibre_product(e, ep)
    proj, target = _baer_quotient(e, ep, (pb.p1.map, pb.p2.map))
    mid = _hom(pb.group, target.middle, proj[pb.p1.map * ep.middle.order + pb.p2.map])
    beta = pair_codiagonal(pm, e.module)
    return ExtensionLift(source=dom_ext, beta=beta, mid=mid, target=target)
