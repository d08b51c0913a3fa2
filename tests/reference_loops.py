"""The pointwise loops that the array searches replaced, kept as references.

Each function is the earlier library code, verbatim apart from its name and
the reference functions it calls, so the tests can compare the array
versions with the loops they replaced list for list.
"""

import itertools

import numpy as np

from bfly import _kernels
from bfly.actions import CModuleMorphism, build_cmodule
from bfly.butterflies import XExtMorphism
from bfly.crossed import CrossedModule
from bfly.errors import (
    ActionNotWellDefined,
    BaseMismatch,
    NotCentral,
    NotEquivariant,
    NotExact,
    PeifferViolation,
    PreCrossedViolation,
)
from bfly.groups import GroupHom, build_hom, compose, generating_sequence, zero_hom

SECTION_SCAN_LIMIT = 8  # try every section when the base is at most this big


def ref_build_crossed_module(boundary, action):
    e1, e2, bnd = boundary.cod, boundary.dom, boundary
    for g in e1.elements():
        for x in e2.elements():
            if bnd(action(g, x)) != e1.conj(g, bnd(x)):
                raise PreCrossedViolation(f"at (g, x) = ({g}, {x})")
    for x1 in e2.elements():
        for x2 in e2.elements():
            if action(bnd(x1), x2) != e2.conj(x1, x2):
                raise PeifferViolation(f"at (x1, x2) = ({x1}, {x2})")
    return CrossedModule(boundary=boundary, action=action)


def _extend_by_generators(g, h, gens, images):
    """Propagate a generator assignment to a full map, or None on conflict."""
    m = np.full(g.order, -1, dtype=np.int64)
    m[0] = 0
    frontier = [0]
    while frontier:
        new_frontier = []
        for a in frontier:
            for gen, img in zip(gens, images):
                b = g.add(a, gen)
                v = h.add(int(m[a]), img)
                if m[b] < 0:
                    m[b] = v
                    new_frontier.append(b)
                elif m[b] != v:
                    return None
        frontier = new_frontier
    if (m < 0).any():
        return None
    return m


def ref_all_homs(g, h, limit=None):
    """All homomorphisms G -> H, sorted lexicographically by value table."""
    gens = generating_sequence(g)
    if not gens:
        return [zero_hom(g, h)]
    orders = [g.element_order(a) for a in gens]
    candidates = [
        [x for x in h.elements() if orders[i] % h.element_order(x) == 0]
        for i in range(len(gens))
    ]
    found = []
    for images in itertools.product(*candidates):
        m = _extend_by_generators(g, h, gens, images)
        if m is None:
            continue
        if _kernels.hom_violation(g.table, h.table, m) is None:
            found.append(m)
    found.sort(key=lambda m: m.tolist())
    if limit is not None:
        found = found[:limit]
    return [GroupHom(dom=g, cod=h, map=m) for m in found]


def ref_find_isomorphisms(g, h, limit=None):
    """All isomorphisms G -> H, sorted lexicographically, truncated at limit."""
    if g.order != h.order:
        return []
    isos = [f for f in ref_all_homs(g, h) if f.is_injective()]
    if limit is not None:
        isos = isos[:limit]
    return isos


def ref_cmodule_morphism(dom, cod, hom):
    if dom.base != cod.base:
        raise BaseMismatch("module morphisms require the same base group")
    if not isinstance(hom, GroupHom):
        hom = build_hom(dom.coeff, cod.coeff, hom)
    if hom.dom != dom.coeff or hom.cod != cod.coeff:
        raise BaseMismatch("hom does not match module coefficients")
    for c in dom.base.elements():
        for b in dom.coeff.elements():
            if hom(dom.xi(c, b)) != cod.xi(c, hom(b)):
                raise NotEquivariant(
                    f"f(xi({c},{b})) = {hom(dom.xi(c, b))} but "
                    f"xi'({c}, f({b})) = {cod.xi(c, hom(b))}"
                )
    return CModuleMorphism(dom=dom, cod=cod, hom=hom)


def ref_all_module_morphisms(dom, cod):
    """All equivariant homomorphisms dom -> cod, deterministic order."""
    out = []
    for h in ref_all_homs(dom.coeff, cod.coeff):
        try:
            out.append(ref_cmodule_morphism(dom, cod, h))
        except NotEquivariant:
            continue
    return out


def ref_xext_morphisms_over(e, g, beta):
    """All crossed-extension morphisms over beta, by exhaustive hom scan."""
    f1s = [
        f1 for f1 in ref_all_homs(e.e1, g.e1) if compose(g.p, f1) == e.p
    ]
    kernel_target = compose(g.j, beta.hom)
    out = []
    for f2 in ref_all_homs(e.e2, g.e2):
        if compose(f2, e.j) != kernel_target:
            continue
        for f1 in f1s:
            if compose(g.xm.boundary, f2) != compose(f1, e.xm.boundary):
                continue
            if any(
                f2(e.xm.act(h, x)) != g.xm.act(f1(h), f2(x))
                for h in e.e1.elements()
                for x in e.e2.elements()
            ):
                continue
            out.append(
                XExtMorphism(dom=e, cod=g, beta=beta, f2=f2, f1=f1)
            )
    out.sort(key=lambda m: (m.f1.map.tolist(), m.f2.map.tolist()))
    return out


def ref_induced_module(kappa, gamma):
    """Conjugation module on the kernel; section-independent for abelian B."""
    b_grp, e_grp, c_grp = kappa.dom, kappa.cod, gamma.cod
    in_b = {kappa(b): b for b in b_grp.elements()}
    fibres = {c: [] for c in c_grp.elements()}
    for e in e_grp.elements():
        fibres[gamma(e)].append(e)
    act = np.zeros((c_grp.order, b_grp.order), dtype=np.int64)
    scan_all = c_grp.order <= SECTION_SCAN_LIMIT
    for c in c_grp.elements():
        reps = fibres[c] if scan_all else fibres[c][:1]
        for b in b_grp.elements():
            imgs = {e_grp.conj(e, kappa(b)) for e in reps}
            if len(imgs) != 1:
                raise NotExact(
                    f"conjugation module is section-dependent at c={c}, b={b}"
                )
            img = imgs.pop()
            if img not in in_b:
                raise NotExact(f"kernel is not normal at c={c}, b={b}")
            act[c, b] = in_b[img]
    return build_cmodule(c_grp, b_grp, act)


def ref_induced_module_via_j(j, xm, p):
    """Module structure on dom(j) induced by the ambient action through p."""
    b_grp, e2 = j.dom, xm.e2
    in_b = {j(b): b for b in b_grp.elements()}
    for b in b_grp.elements():
        jb = j(b)
        for x in e2.elements():
            if e2.add(jb, x) != e2.add(x, jb):
                raise NotCentral(f"j({b}) does not commute with {x}")
    c_grp = p.cod
    lifts = {c: [] for c in c_grp.elements()}
    for g in xm.e1.elements():
        lifts[p(g)].append(g)
    act = np.zeros((c_grp.order, b_grp.order), dtype=np.int64)
    for c in c_grp.elements():
        for b in b_grp.elements():
            imgs = {xm.act(g, j(b)) for g in lifts[c]}
            if len(imgs) != 1:
                raise ActionNotWellDefined(
                    f"lifts of {c} act differently on kernel element {b}"
                )
            img = imgs.pop()
            if img not in in_b:
                raise ActionNotWellDefined(
                    f"action of {c} leaves the kernel at {b}"
                )
            act[c, b] = in_b[img]
    return build_cmodule(c_grp, b_grp, act)
