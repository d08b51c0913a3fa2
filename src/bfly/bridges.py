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
    _faces,
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


def _pointed_section(gamma, rng: np.random.Generator | None) -> np.ndarray:
    """Section of gamma over its image with s(0) = 0, and -1 off the image.

    Each fibre gives its least index, or a seeded-random one.
    """
    section = np.full(gamma.cod.order, -1, dtype=np.int64)
    section[0] = 0
    for c in range(1, gamma.cod.order):
        fibre = np.flatnonzero(gamma.map == c)
        if len(fibre):
            section[c] = fibre[0] if rng is None else fibre[rng.integers(len(fibre))]
    return section


def _preimage(inclusion) -> np.ndarray:
    """Inverse of an injective hom on its image, and -1 off the image."""
    out = np.full(inclusion.cod.order, -1, dtype=np.int64)
    out[inclusion.map] = np.arange(inclusion.dom.order)
    return out


def _defect(g, s: np.ndarray, c_table: np.ndarray) -> np.ndarray:
    """s(c1) + s(c2) - s(c1 + c2) in g, over all pairs (c1, c2)."""
    return g.table[g.table[s[:, None], s[None, :]], g.inv[s[c_table]]]


def cocycle_of_extension(
    ext: AbelianExtension, rng: np.random.Generator | None = None
) -> Cochain:
    """Failure of a pointed section to be a homomorphism, as a 2-cochain."""
    s = _pointed_section(ext.quotient_arrow, rng)
    vals = _preimage(ext.kernel_arrow)[_defect(ext.middle, s, ext.module.base.table)]
    require((vals >= 0).all(), "section defect outside the kernel")
    return build_cochain(ext.module, 2, vals)


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
    kernel and defines the 3-cocycle.  Its terms are faces 0, 2, 1, 3 of
    (c1, c2, c3), summed in this order because E2 need not be abelian.
    """
    m, e2 = e.module, e.e2
    s = _pointed_section(e.p, rng)
    t = _pointed_section(e.xm.boundary, rng)
    g = t[_defect(e.e1, s, m.base.table)]
    require((g >= 0).all(), "section defect outside the boundary image")
    faces, first = _faces(m.base, 2)
    terms = g.reshape(-1)[faces]
    z = e.xm.action.act[s[first], terms[:, 0]]
    z = e2.table[z, terms[:, 2]]
    z = e2.table[z, e2.inv[terms[:, 1]]]
    z = e2.table[z, e2.inv[terms[:, 3]]]
    vals = _preimage(e.j)[z]
    require((vals >= 0).all(), "associativity defect outside j(B)")
    return build_cochain(m, 3, vals.reshape((m.base.order,) * 3))


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
