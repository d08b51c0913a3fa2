"""Bridges between cochains and (crossed) extensions.

These translate between the constructive side (extension groupoids,
butterflies) and the bar-resolution cohomology solver, keeping the two
sides independent so each can validate the other.
"""

from __future__ import annotations

import numpy as np

from .actions import CModuleMorphism
from .butterflies import CrossedExtension
from .cohomology import (
    CocycleClass,
    Cochain,
    build_cochain,
    cohomology,
    is_cocycle,
)
from .errors import NotACocycle, require
from .extensions import AbelianExtension, build_extension
from .groups import _group, _hom


def extension_from_2cocycle(f: Cochain) -> AbelianExtension:
    """Middle group B x C with (b,c)+(b',c') = (b + c*b' + f(c,c'), c+c').

    The 2-cocycle condition makes this a group, and normalisation makes
    (0, 0), index 0, its identity, so the table is built by invariant.
    """
    if f.degree != 2:
        raise NotACocycle("expected a degree-2 cochain")
    if f.values[0].any() or f.values[:, 0].any():
        raise NotACocycle("cochain is not normalized")
    if not is_cocycle(f):
        raise NotACocycle("cochain does not satisfy the 2-cocycle condition")
    m = f.module
    b_grp, c_grp = m.coeff, m.base
    nb, nc = b_grp.order, c_grp.order
    # axes (b, c, b', c'); element (b, c) has index b * nc + c
    twisted = b_grp.table[:, m.action.act]                  # b + c*b'
    bsum = b_grp.table[twisted[..., None], f.values[None, :, None, :]]
    table = bsum * nc + c_grp.table[None, :, None, :]
    middle = _group(table.reshape(nb * nc, nb * nc))
    kappa = _hom(b_grp, middle, np.arange(nb) * nc)
    gamma = _hom(middle, c_grp, np.tile(np.arange(nc), nb))
    ext = build_extension(kappa, gamma)
    require(ext.module == m)
    return ext


def _pointed_section(gamma, rng: np.random.Generator | None):
    """Section of a surjection with s(0) = 0; least-index or seeded-random."""
    fibres: dict[int, list[int]] = {}
    for e in gamma.dom.elements():
        fibres.setdefault(gamma(e), []).append(e)
    section = {}
    for c, es in sorted(fibres.items()):
        if c == 0:
            section[c] = 0
        elif rng is None:
            section[c] = min(es)
        else:
            section[c] = int(es[rng.integers(len(es))])
    return section


def cocycle_of_extension(
    ext: AbelianExtension, rng: np.random.Generator | None = None
) -> Cochain:
    """Failure of a pointed section to be a homomorphism, as a 2-cochain."""
    m = ext.module
    b_grp, c_grp = m.coeff, m.base
    e_grp = ext.middle
    kappa, gamma = ext.kernel_arrow, ext.quotient_arrow
    in_b = {kappa(b): b for b in b_grp.elements()}
    s = _pointed_section(gamma, rng)
    nc = c_grp.order
    vals = np.zeros((nc, nc), dtype=np.int64)
    for c1 in range(nc):
        for c2 in range(nc):
            defect = e_grp.sub(
                e_grp.add(s[c1], s[c2]), s[c_grp.add(c1, c2)]
            )
            vals[c1, c2] = in_b[defect]
    f = build_cochain(m, 2, vals)
    require(is_cocycle(f))
    return f


def class_of_extension(
    ext: AbelianExtension, rng: np.random.Generator | None = None
) -> CocycleClass:
    return cohomology(ext.module, 2).classify(cocycle_of_extension(ext, rng))


def cocycle_of_crossed_extension(
    e: CrossedExtension, rng: np.random.Generator | None = None
) -> Cochain:
    """Associativity defect of section lifts, as a normalized 3-cochain.

    Sections: s of p (pointed), t of the boundary onto its image
    (pointed); g(c1,c2) = t(s(c1)+s(c2)-s(c1+c2)); the defect
    s(c1)*g(c2,c3) + g(c1,c2+c3) - g(c1+c2,c3) - g(c1,c2) lies in the
    kernel and defines the 3-cocycle.
    """
    m = e.module
    b_grp, c_grp = m.coeff, m.base
    e1, e2 = e.e1, e.e2
    bnd = e.xm.boundary
    s = _pointed_section(e.p, rng)
    image = sorted(set(bnd.map.tolist()))
    t_fibres: dict[int, list[int]] = {g: [] for g in image}
    for x in e2.elements():
        t_fibres[bnd(x)].append(x)
    t = {}
    for g in image:
        if g == 0:
            t[g] = 0
        elif rng is None:
            t[g] = min(t_fibres[g])
        else:
            t[g] = int(t_fibres[g][rng.integers(len(t_fibres[g]))])
    in_b = {e.j(b): b for b in b_grp.elements()}
    nc = c_grp.order

    def g_of(c1: int, c2: int) -> int:
        return t[e1.sub(e1.add(s[c1], s[c2]), s[c_grp.add(c1, c2)])]

    vals = np.zeros((nc, nc, nc), dtype=np.int64)
    for c1 in range(nc):
        for c2 in range(nc):
            for c3 in range(nc):
                z = e.xm.act(s[c1], g_of(c2, c3))
                z = e2.add(z, g_of(c1, c_grp.add(c2, c3)))
                z = e2.sub(z, g_of(c_grp.add(c1, c2), c3))
                z = e2.sub(z, g_of(c1, c2))
                vals[c1, c2, c3] = in_b[z]
    f = build_cochain(m, 3, vals)
    require(is_cocycle(f))
    return f


def class_of_crossed_extension(
    e: CrossedExtension, rng: np.random.Generator | None = None
) -> CocycleClass:
    return cohomology(e.module, 3).classify(
        cocycle_of_crossed_extension(e, rng)
    )


def map_cochain(beta: CModuleMorphism, f: Cochain) -> Cochain:
    """Push a cochain's values forward along a module morphism."""
    if beta.dom != f.module:
        raise NotACocycle("cochain is not over the domain module of beta")
    return build_cochain(beta.cod, f.degree, beta.hom.map[f.values])


def push_class(beta: CModuleMorphism, cls: CocycleClass) -> CocycleClass:
    """Induced map on cohomology, computed on a representative."""
    mapped = map_cochain(beta, cls.representative)
    return cohomology(beta.cod, cls.representative.degree).classify(mapped)
