"""Actions, C-modules, module morphisms, products and codiagonals."""

import itertools
import re

import numpy as np
import pytest

from bfly.actions import (
    add_morphisms,
    all_module_morphisms,
    build_action,
    build_cmodule,
    cmodule_morphism,
    cmodule_product,
    codiagonal,
    compose_morphisms,
    identity_morphism,
    negate,
    trivial_action,
    trivial_module,
    zero_morphism,
)
from bfly.errors import BaseMismatch, NotAbelian, NotAnAction, NotEquivariant
from bfly.groups import build_hom


def test_action_by_non_automorphism_rejected(z2, z4):
    with pytest.raises(NotAnAction):
        build_action(z2, z4, [[0, 1, 2, 3], [1, 2, 3, 0]])  # x+1 is not a hom


def test_action_must_respect_actor_multiplication(z4, z3):
    # order-2 inversion assigned to a generator of Z4 twice fails 1*1=2
    with pytest.raises(NotAnAction):
        build_action(z4, z3, [[0, 1, 2], [0, 2, 1], [0, 1, 2], [0, 1, 2]])


def test_inversion_action(z2_z3_inv):
    m = z2_z3_inv
    assert m.xi(1, 1) == 2
    assert m.xi(0, 2) == 2


def test_module_requires_abelian_coefficients(z2, s3):
    with pytest.raises(NotAbelian):
        trivial_module(z2, s3)


def test_morphism_equivariance(z3_z3_triv, z2_z3_inv, z3):
    doubling = build_hom(z3, z3, [0, 2, 1])
    m = z2_z3_inv
    # doubling commutes with inversion: 2(-b) = -(2b)
    f = cmodule_morphism(m, m, doubling)
    assert f.hom(1) == 2
    twisted = build_cmodule(m.base, z3, trivial_action(m.base, z3))
    with pytest.raises(NotEquivariant):
        cmodule_morphism(m, twisted, doubling)


def test_morphism_arithmetic(z2_z2_triv):
    m = z2_z2_triv
    i = identity_morphism(m)
    z = zero_morphism(m, m)
    assert add_morphisms(i, i) == z  # 2 = 0 in Z2
    assert negate(i) == i
    assert compose_morphisms(i, i) == i


def test_all_module_morphisms_counts(z2_z2_triv, z2_z3_inv):
    assert len(all_module_morphisms(z2_z2_triv, z2_z2_triv)) == 2
    # Hom(Z2, Z3) = 0, equivariant or not
    assert len(all_module_morphisms(z2_z2_triv, z2_z3_inv)) == 1


def test_product_and_codiagonal(z2_z2_triv):
    pr = cmodule_product(z2_z2_triv, z2_z2_triv)
    assert pr.module.base == z2_z2_triv.base  # shared base C
    assert pr.module.coeff.order == 4
    _, cod = codiagonal(z2_z2_triv)
    assert cod.hom(pr.module.coeff.order - 1) == 0  # (1,1) |-> 1+1 = 0


def test_module_morphism_searches_match_the_exception_filter():
    """all_module_morphisms and the equivariance witness against the parent loops."""
    from bfly.catalog import standard_modules
    from bfly.groups import all_homs
    from reference_loops import ref_all_module_morphisms, ref_cmodule_morphism

    mods = [m for _, m in standard_modules()]
    assert len(mods) == 22
    pairs = 0
    for dom, cod in itertools.product(mods, repeat=2):
        if dom.base != cod.base:
            continue
        pairs += 1
        got = all_module_morphisms(dom, cod)
        assert [f.hom.map.tolist() for f in got] == [
            f.hom.map.tolist() for f in ref_all_module_morphisms(dom, cod)]
        assert all(f.dom == dom and f.cod == cod for f in got)
        for h in all_homs(dom.coeff, cod.coeff):
            try:
                want = ref_cmodule_morphism(dom, cod, h)
            except NotEquivariant as exc:
                with pytest.raises(NotEquivariant, match=re.escape(str(exc))):
                    cmodule_morphism(dom, cod, h)
            else:
                assert cmodule_morphism(dom, cod, h) == want
    assert pairs > 100
    with pytest.raises(BaseMismatch):
        all_module_morphisms(mods[0], mods[-1])


def test_product_built_by_invariant_passes_validation():
    from bfly.catalog import standard_modules

    mods = [m for _, m in standard_modules()]
    for m1, m2 in itertools.product(mods[::3], repeat=2):
        if m1.base != m2.base:
            continue
        pr = cmodule_product(m1, m2)
        module = build_cmodule(m1.base, pr.product.group, pr.module.action.act)
        assert module == pr.module
        for f in (pr.proj1, pr.proj2, pr.inj1, pr.inj2):
            assert cmodule_morphism(f.dom, f.cod, f.hom.map) == f
        n2 = m2.coeff.order
        for c, b1, b2 in itertools.product(m1.base.elements(), m1.coeff.elements(),
                                           m2.coeff.elements()):
            assert module.xi(c, b1 * n2 + b2) == m1.xi(c, b1) * n2 + m2.xi(c, b2)


def test_induced_module_reports_the_first_bad_lift(z2, z4):
    from bfly.actions import induced_module
    from bfly.errors import ActionNotWellDefined

    j = build_hom(z2, z4, [0, 2])
    p = build_hom(z4, z2, [0, 1, 0, 1])
    moved = np.asarray([[0, 2]] * 4)            # g * j(b) for g in Z4, b in Z2
    m = induced_module(j, moved, p, ActionNotWellDefined)
    assert m.base == z2 and m.coeff == z2 and m.action.is_trivial()
    moved[3, 1] = 1                             # the lifts 1 and 3 of c = 1 disagree
    with pytest.raises(ActionNotWellDefined, match="lifts of 1 act differently on kernel element 1"):
        induced_module(j, moved, p, ActionNotWellDefined)
    moved[1, 1] = 1                             # now they agree, outside j(B)
    with pytest.raises(ActionNotWellDefined, match="action of 1 leaves the kernel at 1"):
        induced_module(j, moved, p, ActionNotWellDefined)
