"""Abelian extensions: Baer sum, fibre morphisms, pushforwards, pi1."""

import numpy as np
import pytest

from bfly.actions import cmodule_morphism, zero_morphism
from bfly.bridges import class_of_extension, extension_from_2cocycle
from bfly.cohomology import build_cochain, cohomology, cyclic_group, z1
from bfly.extensions import (
    are_fibre_isomorphic,
    baer_sum,
    build_extension,
    fibre_morphisms,
    pi1_h2,
    pushforward_extension,
    unit_extension,
)
from bfly.groups import build_hom, find_isomorphisms
from bfly.universal import check_cocartesian_extension, extension_morphisms_over


def z4_ext(module):
    """The nonsplit extension Z2 -> Z4 -> Z2."""
    return extension_from_2cocycle(
        build_cochain(module, 2, [[0, 0], [0, 1]])
    )


def k4_ext(module, z2):
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    from bfly.groups import build_group

    k4 = build_group(table)
    return build_extension(build_hom(z2, k4, [0, 1]), build_hom(k4, z2, [0, 0, 1, 1]))


def test_bridge_requires_a_normalized_cocycle(z2_z2_triv):
    from bfly.cohomology import Cochain
    from bfly.errors import NotACocycle

    shifted = Cochain(2, z2_z2_triv, np.ones((2, 2), dtype=np.int64))
    with pytest.raises(NotACocycle, match="not normalized"):
        extension_from_2cocycle(shifted)


def test_unit_extension_splits(z2_z2_triv):
    unit = unit_extension(z2_z2_triv)
    assert class_of_extension(unit).is_zero()


def test_baer_sum_of_z4_with_itself_is_split(z2_z2_triv, z2):
    e = z4_ext(z2_z2_triv)
    s = baer_sum(e, e)
    assert class_of_extension(s).is_zero()
    assert are_fibre_isomorphic(s, k4_ext(z2_z2_triv, z2))

    # Z12 >-> Z24 ->> Z2: the pullback has order 288 inside a 576-element
    # product, above the order cap, so it must be built from its members
    z12, z24 = cyclic_group(12), cyclic_group(24)
    e = build_extension(build_hom(z12, z24, [2 * x for x in range(12)]),
                        build_hom(z24, z2, [x % 2 for x in range(24)]))
    s = baer_sum(e, e)
    assert s.middle.order == 24
    assert max(s.middle.element_order(x) for x in s.middle.elements()) < 24
    assert class_of_extension(s).is_zero()


def test_baer_sum_adds_classes(z3_z3_triv):
    g = cohomology(z3_z3_triv, 2)
    e1 = extension_from_2cocycle(g.representative((1,)))
    e2 = extension_from_2cocycle(g.representative((2,)))
    assert class_of_extension(baer_sum(e1, e2)).is_zero()


def test_fibre_morphism_counts(z2_z2_triv, z2):
    e = z4_ext(z2_z2_triv)
    k = k4_ext(z2_z2_triv, z2)
    unit = unit_extension(z2_z2_triv)
    # exhaustive scan: x -> 3x is a second fibre automorphism of the Z4
    # extension, so Aut in the fibre is a torsor under Z^1 (order 2)
    assert len(fibre_morphisms(e, e)) == 2
    assert fibre_morphisms(e, k) == []
    assert len(fibre_morphisms(unit, unit)) == 2


def test_pi1_matches_z1(z2_z2_triv, z2_z3_inv, z3_z3_triv):
    for m in (z2_z2_triv, z2_z3_inv, z3_z3_triv):
        assert pi1_h2(m).order == z1(m).group.order


def test_pushforward_along_zero_gives_unit(z2_z2_triv, z2_z3_inv):
    e = z4_ext(z2_z2_triv)
    lift = pushforward_extension(e, zero_morphism(z2_z2_triv, z2_z3_inv))
    assert are_fibre_isomorphic(lift.target, unit_extension(z2_z3_inv))


def test_pushforward_is_cocartesian(z2_z2_triv):
    e = z4_ext(z2_z2_triv)
    from bfly.actions import identity_morphism

    beta = identity_morphism(z2_z2_triv)
    lift = pushforward_extension(e, beta)
    assert check_cocartesian_extension(lift, e, lift.target, beta)
    # there are morphisms over beta to factor through in the first place
    assert extension_morphisms_over(e, lift.target, beta)


def test_pushforward_middle_group(z2_z2_triv, z4):
    from bfly.actions import identity_morphism

    e = z4_ext(z2_z2_triv)
    lift = pushforward_extension(e, identity_morphism(z2_z2_triv))
    assert find_isomorphisms(lift.target.middle, z4, limit=1)
