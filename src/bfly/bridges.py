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
from .errors import ModuleMismatch, NotACocycle, require
from .extensions import AbelianExtension, _extension
from .groups import _group, _hom


def extension_from_2cocycle(f: Cochain) -> AbelianExtension:
    """Middle group B x C with (b,c)+(b',c') = (b + c*b' + f(c,c'), c+c').

    The 2-cocycle condition makes this a group, and normalisation makes
    (0, 0), index 0, its identity, so the table and the extension, which
    induces f's module, are built by invariant.
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
    return _extension(kappa, gamma, m)


def _pointed_sections(arrows, rng: np.random.Generator | None, count: int):
    """``count`` pointed sections of each arrow over its image, as stacks.

    Each section of a gamma in ``arrows`` is a row with s(0) = 0 and -1 off
    the image; each fibre gives its least index, or a seeded-random one.
    The draws come in the order of ``count`` successive rounds, each
    taking the fibres of every arrow in turn, in increasing c.
    """
    fibres = []
    for gamma in arrows:
        order = np.argsort(gamma.map, kind="stable")
        points, starts, sizes = np.unique(
            gamma.map[order], return_index=True, return_counts=True
        )
        fibres.append((order, points[1:], starts[1:], sizes[1:]))
    sizes = np.concatenate([f[3] for f in fibres])
    if rng is None:
        draws = np.zeros((count, len(sizes)), dtype=np.int64)
    else:
        draws = rng.integers(np.tile(sizes, count)).reshape(count, len(sizes))
    out, at = [], 0
    for gamma, (order, points, starts, _) in zip(arrows, fibres):
        section = np.full((count, gamma.cod.order), -1, dtype=np.int64)
        section[:, 0] = 0
        section[:, points] = order[starts + draws[:, at: at + len(points)]]
        out.append(section)
        at += len(points)
    return out


def _preimage(inclusion) -> np.ndarray:
    """Inverse of an injective hom on its image, and -1 off the image."""
    out = np.full(inclusion.cod.order, -1, dtype=np.int64)
    out[inclusion.map] = np.arange(inclusion.dom.order)
    return out


def _defect(g, s: np.ndarray, c_table: np.ndarray) -> np.ndarray:
    """s(c1) + s(c2) - s(c1 + c2) in g, over all pairs (c1, c2), per row of s."""
    return g.table[g.table[s[..., :, None], s[..., None, :]], g.inv[s[..., c_table]]]


def cocycle_of_extension(
    ext: AbelianExtension, rng: np.random.Generator | None = None
) -> Cochain:
    """Failure of a pointed section to be a homomorphism, as a 2-cochain."""
    (s,) = _pointed_sections([ext.quotient_arrow], rng, 1)
    vals = _preimage(ext.kernel_arrow)[_defect(ext.middle, s[0], ext.module.base.table)]
    require((vals >= 0).all(), "section defect outside the kernel")
    return build_cochain(ext.module, 2, vals)


def class_of_extension(
    ext: AbelianExtension, rng: np.random.Generator | None = None
) -> CocycleClass:
    return cohomology(ext.module, 2).classify(cocycle_of_extension(ext, rng))


def _crossed_cocycle_rows(
    e: CrossedExtension, rng: np.random.Generator | None, count: int
) -> tuple[np.ndarray, str | None]:
    """Associativity defects of ``count`` section pairs, as 3-cochain rows.

    Sections: s of p (pointed), t of the boundary onto its image
    (pointed); g(c1,c2) = t(s(c1)+s(c2)-s(c1+c2)); the defect
    s(c1)*g(c2,c3) + g(c1,c2+c3) - g(c1+c2,c3) - g(c1,c2) lies in the
    kernel and defines the 3-cocycle.  Its terms are faces 0, 2, 1, 3 of
    (c1, c2, c3), summed in this order because E2 need not be abelian.
    Row r draws its s and then its t as the r-th of ``count`` successive
    one-row calls would.  Returns the row-major values of the rows before
    the first whose defect leaves the image, and that row's failure or None.
    """
    m, e2 = e.module, e.e2
    s, t = _pointed_sections([e.p, e.xm.boundary], rng, count)
    g = np.take_along_axis(t, _defect(e.e1, s, m.base.table).reshape(count, -1), axis=1)
    faces, first = _faces(m.base, 2)
    terms = g[:, faces]             # -1 in a failing row still indexes, harmlessly
    z = e.xm.action.act[s[:, first], terms[..., 0]]
    z = e2.table[z, terms[..., 2]]
    z = e2.table[z, e2.inv[terms[..., 1]]]
    z = e2.table[z, e2.inv[terms[..., 3]]]
    vals = _preimage(e.j)[z]
    outside_image, outside_j = (g < 0).any(axis=1), (vals < 0).any(axis=1)
    failed = outside_image | outside_j
    if not failed.any():
        return vals, None
    r = int(failed.argmax())
    if outside_image[r]:
        return vals[:r], "section defect outside the boundary image"
    return vals[:r], "associativity defect outside j(B)"


def cocycle_of_crossed_extension(
    e: CrossedExtension, rng: np.random.Generator | None = None
) -> Cochain:
    """Associativity defect of section lifts, as a normalized 3-cochain."""
    rows, failure = _crossed_cocycle_rows(e, rng, 1)
    require(failure is None, failure)
    return build_cochain(e.module, 3, rows[0].reshape((e.module.base.order,) * 3))


def classes_of_crossed_extensions(
    exts: list[CrossedExtension],
    rng: np.random.Generator | None = None,
    count: int = 1,
) -> list[CocycleClass]:
    """Classes of ``count`` re-chosen cocycles of each extension, in one stack.

    The extensions share one module.  The classes come extension by
    extension, as successive one-row calls give them and with the same
    draws.  The rows are classified before a failing row is reported, so
    the stack raises what the one-row path raises for its first failing row.
    """
    module = exts[0].module
    stacks, failure = [], None
    for e in exts:
        if e.module != module:
            raise ModuleMismatch("crossed extensions over different modules")
        rows, failure = _crossed_cocycle_rows(e, rng, count)
        stacks.append(rows)
        if failure is not None:
            break
    classes = cohomology(module, 3).classify_rows(np.concatenate(stacks))
    require(failure is None, failure)
    return classes


def class_of_crossed_extension(
    e: CrossedExtension, rng: np.random.Generator | None = None
) -> CocycleClass:
    return classes_of_crossed_extensions([e], rng)[0]


def map_cochain(beta: CModuleMorphism, f: Cochain) -> Cochain:
    """Push a cochain's values forward along a module morphism."""
    if beta.dom != f.module:
        raise NotACocycle("cochain is not over the domain module of beta")
    return build_cochain(beta.cod, f.degree, beta.hom.map[f.values])


def push_classes(
    betas: list[CModuleMorphism], classes: list[CocycleClass]
) -> list[CocycleClass]:
    """Induced maps on cohomology, computed on representatives, in one stack.

    The betas share one codomain; the classes come beta by beta, each
    beta's in the order of ``classes``.
    """
    reps = [cls.representative for cls in classes]
    rows = [map_cochain(beta, f).values.reshape(-1) for beta in betas for f in reps]
    return cohomology(betas[0].cod, reps[0].degree).classify_rows(np.stack(rows))


def push_class(beta: CModuleMorphism, cls: CocycleClass) -> CocycleClass:
    """Induced map on cohomology, computed on a representative."""
    return push_classes([beta], [cls])[0]
