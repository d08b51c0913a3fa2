"""Abelian extensions: Baer sum, fibre morphisms, pushforwards, pi1."""

import itertools

import numpy as np
import pytest

from bfly import _kernels
from bfly.actions import all_module_morphisms, cmodule_morphism, zero_morphism
from bfly.bridges import (
    class_of_extension,
    cocycle_of_extension,
    extension_from_2cocycle,
)
from bfly.catalog import h2_catalog, standard_modules
from bfly.cohomology import build_cochain, cohomology, cyclic_group, z1
from bfly.extensions import (
    are_fibre_isomorphic,
    baer_sum,
    build_extension,
    fibre_morphisms,
    pi1_group,
    pushforward_extension,
    unit_extension,
)
from bfly.errors import ModuleMismatch
from bfly.groups import GroupHom, build_hom, compose, find_isomorphisms
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
        assert pi1_group(m)[0].order == z1(m).group.order


def test_pushforward_along_zero_gives_unit(z2_z2_triv, z2_z3_inv):
    e = z4_ext(z2_z2_triv)
    lift = pushforward_extension(e, zero_morphism(z2_z2_triv, z2_z3_inv))
    assert are_fibre_isomorphic(lift.target, unit_extension(z2_z3_inv))


def test_pushforward_is_cocartesian(z2_z2_triv):
    e = z4_ext(z2_z2_triv)
    from bfly.actions import identity_morphism

    beta = identity_morphism(z2_z2_triv)
    lift = pushforward_extension(e, beta)
    assert check_cocartesian_extension(lift, e, lift.target, [beta]) == [True]
    # there are morphisms over beta to factor through in the first place
    assert extension_morphisms_over(e, lift.target, beta)


def test_cocartesian_check_counts_one_factorisation(z2_z2_triv, z2_z3_inv):
    """The array count against the parent's candidate-by-candidate count."""
    from bfly.actions import all_module_morphisms, compose_morphisms, identity_morphism
    from bfly.extensions import ExtensionLift
    from bfly.groups import build_hom, compose
    from bfly.universal import _factor_once

    def candidate_count(lift, dom, g, beta2):
        total = compose_morphisms(beta2, lift.beta)
        tests = extension_morphisms_over(dom, g, total)
        candidates = extension_morphisms_over(lift.target, g, beta2)
        return all(sum(compose(u, lift.mid) == h for u in candidates) == 1 for h in tests)

    verdicts, mixed = set(), 0
    for m in (z2_z2_triv, z2_z3_inv):
        unit = unit_extension(m)
        # a square over beta = 0 that claims beta = id: only beta2 = 0 factors through it
        split = build_hom(unit.middle, unit.middle, unit.quotient_arrow.map)
        fake = ExtensionLift(source=unit, beta=identity_morphism(m), mid=split, target=unit)
        family = all_module_morphisms(m, m)
        for beta in family:
            lift = pushforward_extension(unit, beta)
            for square, g in ((lift, lift.target), (lift, unit), (fake, unit)):
                got = check_cocartesian_extension(square, unit, g, family)
                assert got == [candidate_count(square, unit, g, b2) for b2 in family]
                verdicts.update(got)
                mixed += len(set(got)) == 2
    assert verdicts == {True, False} and mixed > 0
    assert check_cocartesian_extension(fake, unit, unit, []) == []
    assert not _factor_once([[0, 1]], [[0, 1], [0, 1]])
    assert _factor_once([[0, 1]], [[0, 1], [1, 1]])
    assert not _factor_once([[0, 1]], [])


def test_pushforward_middle_group(z2_z2_triv, z4):
    from bfly.actions import identity_morphism

    e = z4_ext(z2_z2_triv)
    lift = pushforward_extension(e, identity_morphism(z2_z2_triv))
    assert find_isomorphisms(lift.target.middle, z4, limit=1)


# --- the reduced-equation search against the candidate loop it replaced ----


def reference_morphisms_over(e, g, beta):
    """The |B'|^|C| candidate loop, kept verbatim as a reference."""
    if beta.dom != e.module or beta.cod != g.module:
        raise ModuleMismatch("beta must run between the two kernel modules")
    k1, g1 = e.kernel_arrow, e.quotient_arrow
    k2, g2 = g.kernel_arrow, g.quotient_arrow
    em, en = e.middle, g.middle
    c_grp, b_grp = g1.cod, k1.dom
    in_b = {k1(b): b for b in b_grp.elements()}
    section = {}
    for x in em.elements():
        section.setdefault(g1(x), x)
    fibres2: dict[int, list[int]] = {c: [] for c in c_grp.elements()}
    for x in en.elements():
        fibres2[g2(x)].append(x)
    cs = sorted(c_grp.elements())
    out = []

    for choice in itertools.product(*[fibres2[c] for c in cs]):
        t = dict(zip(cs, choice))
        mapping = np.zeros(em.order, dtype=np.int64)
        for x in em.elements():
            c = g1(x)
            b = in_b[em.sub(x, section[c])]
            mapping[x] = en.add(k2(beta(b)), t[c])
        if _kernels.hom_violation(em.table, en.table, mapping) is not None:
            continue
        mid = GroupHom(dom=em, cod=en, map=mapping)
        if compose(mid, k1) != compose(k2, beta.hom) or compose(g2, mid) != g1:
            continue
        out.append(mid)
    out.sort(key=lambda m: m.map.tolist())
    return out


@pytest.fixture(scope="module")
def catalog_sweep():
    """(e, g, beta): every standard module whose split extension has order
    at most 16, up to 2 betas to each module on its base, and up to 3
    catalog sources and 3 catalog targets."""
    cats = [h2_catalog(m) for _, m in standard_modules()]
    cats = [(cat[0].module, cat) for cat in cats if cat[0].middle.order <= 16]
    return [
        (e, g, beta)
        for m1, cat1 in cats
        for m2, cat2 in cats
        if m1.base == m2.base
        for beta in all_module_morphisms(m1, m2)[:2]
        for e in cat1[:3]
        for g in cat2[:3]
    ]


def test_search_matches_the_candidate_loop(catalog_sweep):
    """One family search per (e, g), beta by beta, and its one-beta case."""
    from bfly.extensions import _morphisms_over

    assert len(catalog_sweep) == 862
    families = {}
    for e, g, beta in catalog_sweep:
        families.setdefault((id(e), id(g)), (e, g, []))[2].append(beta)
    differ = 0
    for e, g, betas in families.values():
        which, mids = _morphisms_over(e, g, betas)
        assert which.tolist() == sorted(which.tolist())
        found = []
        for k, beta in enumerate(betas):
            want = [m.map.tolist() for m in reference_morphisms_over(e, g, beta)]
            assert mids[which == k].tolist() == want
            got = extension_morphisms_over(e, g, beta)
            assert [m.map.tolist() for m in got] == want
            assert all(m.dom == e.middle and m.cod == g.middle for m in got)
            found.append(want)
        differ += len(betas) > 1 and found[0] != found[1]
    assert len(families) < len(catalog_sweep) and differ > 0


def test_search_is_a_torsor_that_exists_by_class(catalog_sweep):
    nonempty = 0
    for e, g, beta in catalog_sweep:
        found = extension_morphisms_over(e, g, beta)
        assert len(found) in (0, z1(beta.cod).group.order)
        h2 = cohomology(beta.cod, 2)
        pushed = pushforward_extension(e, beta).target
        same = (h2.classify(cocycle_of_extension(pushed))
                == h2.classify(cocycle_of_extension(g)))
        assert bool(found) == same
        nonempty += bool(found)
    assert 0 < nonempty < len(catalog_sweep)
    for _, m in standard_modules():
        unit = unit_extension(m)
        assert len(fibre_morphisms(unit, unit)) == z1(m).group.order


# --- the invariants the constructions no longer check ---------------------


def _valid_extension(e, module):
    """e passes build_extension, its arrows pass build_hom, and it induces module."""
    k, g = e.kernel_arrow, e.quotient_arrow
    valid = build_extension(build_hom(k.dom, k.cod, k.map), build_hom(g.dom, g.cod, g.map))
    assert valid == e
    assert valid.module == module and e.module == module


def _valid_morphism(beta, dom, cod):
    """beta passes cmodule_morphism and runs from dom to cod."""
    assert cmodule_morphism(beta.dom, beta.cod, beta.hom.map) == beta
    assert beta.dom == dom and beta.cod == cod


def test_constructions_built_by_invariant_pass_the_public_validators():
    """Every abelian extension and module morphism that the H2 layer builds
    without validation passes the public validators, over all 22 modules."""
    from bfly.actions import (
        add_morphisms,
        cmodule_product,
        compose_morphisms,
        identity_morphism,
        negate,
        pair_codiagonal,
    )
    from bfly.butterflies import butterfly_beta
    from bfly.universal import composition_square, extension_product, product_of_lifts
    from bfly.verify import _loop_pool

    mods = standard_modules()
    assert len(mods) == 22
    for _, m in mods:
        square = cmodule_product(m, m).module
        unit = unit_extension(m)
        _valid_extension(unit, m)
        h2 = cohomology(m, 2)
        for coords in itertools.product(*[range(f) for f in h2.factors]):
            _valid_extension(extension_from_2cocycle(h2.representative(coords)), m)
        cat = h2_catalog(m)
        for e1, e2 in list(itertools.product(cat, repeat=2))[:4]:
            _valid_extension(baer_sum(e1, e2), m)
            _valid_extension(extension_product(e1, e2), square)
            sq = composition_square(e1, e2)
            _valid_extension(sq.source, square)
            _valid_extension(sq.target, m)
            _valid_morphism(sq.beta, square, m)
        for _, m2 in mods:
            if m2.base != m.base:
                continue
            square2 = cmodule_product(m2, m2).module
            for beta in all_module_morphisms(m, m2)[:2]:
                for e in (unit, cat[-1]):
                    lift = pushforward_extension(e, beta)
                    _valid_extension(lift.target, m2)
                    pl = product_of_lifts(lift, lift)
                    _valid_extension(pl.source, square)
                    _valid_extension(pl.target, square2)
                    _valid_morphism(pl.beta, square, square2)
        endos = all_module_morphisms(m, m)
        _valid_morphism(identity_morphism(m), m, m)
        _valid_morphism(zero_morphism(m, m), m, m)
        _valid_morphism(pair_codiagonal(cmodule_product(m, m), m), square, m)
        for f, g in itertools.product(endos[:3], repeat=2):
            _valid_morphism(negate(f), m, m)
            _valid_morphism(compose_morphisms(f, g), m, m)
            _valid_morphism(add_morphisms(f, g), m, m)
        for loop in _loop_pool(m):
            _valid_morphism(butterfly_beta(loop), m, m)


def _sibling(module):
    """A standard module on the same base and coefficients with another action."""
    return next((m for _, m in standard_modules()
                 if m.base == module.base and m.coeff == module.coeff and m != module), None)


def _off_on_one_coset(e):
    """e with its quotient arrow sent to 0 on the coset of the least element
    outside the kernel, so that the sequence is no longer exact."""
    from dataclasses import replace

    from bfly.groups import _hom

    gamma = e.quotient_arrow
    x = int(np.flatnonzero(gamma.map)[0])
    mapping = gamma.map.copy()
    mapping[e.middle.table[x, e.kernel_arrow.map]] = 0
    return replace(e, quotient_arrow=_hom(gamma.dom, gamma.cod, mapping))


def _not_equivariant(beta):
    """beta's map into a module on the same coefficients with another action."""
    from bfly.actions import CModuleMorphism
    from bfly.groups import _hom

    other = _sibling(beta.cod)
    if other is None:
        return beta
    return CModuleMorphism(beta.dom, other, _hom(beta.dom.coeff, other.coeff, beta.hom.map))


def _lands_elsewhere(lift):
    """lift whose target, still labelled with beta's codomain, is the split
    extension of a module with the same coefficients and another action."""
    from dataclasses import replace

    from bfly.extensions import _extension

    other = _sibling(lift.beta.cod)
    if other is None:
        return lift
    u = unit_extension(other)
    return replace(lift, target=_extension(u.kernel_arrow, u.quotient_arrow, lift.beta.cod))


def test_verify_fails_a_broken_h2_construction_by_its_validator(monkeypatch):
    """The Baer sum, beta and the pushforward build by invariant, so a broken
    one must fail the check that validates it, with the validator's error."""
    from bfly import verify

    real_sum, real_beta, real_push = (verify.baer_sum, verify.butterfly_beta,
                                      verify.pushforward_extension)
    monkeypatch.setattr(verify, "baer_sum", lambda e1, e2: _off_on_one_coset(real_sum(e1, e2)))
    monkeypatch.setattr(verify, "butterfly_beta", lambda b: _not_equivariant(real_beta(b)))
    monkeypatch.setattr(verify, "pushforward_extension",
                        lambda e, beta: _lands_elsewhere(real_push(e, beta)))

    pi0 = verify.run_suite("h2-pi0")
    failed = [r for r in pi0 if not r.passed]
    assert {r.name.rsplit(":", 1)[0] for r in failed} == {"h2:baer-sum-adds-classes"}
    assert len(failed) == 22
    assert all(r.detail == "NotExact: (kernel, quotient) is not short exact" for r in failed)

    laws = {r.name: r for r in verify.run_suite("butterfly-laws")}
    assert {name for name, r in laws.items() if not r.passed} == {
        "butterfly:compose:beta-functorial", "butterfly:beta:iso-invariant",
        "butterfly:from-morphism:tensor-unit-comparison"}
    for name in ("butterfly:compose:beta-functorial", "butterfly:beta:iso-invariant"):
        assert laws[name].detail.startswith("NotEquivariant: ")

    opf = {r.name: r for r in verify.run_suite("opfibration")}
    named = ("h2:pushforward:cocartesian-universal-property",
             "h2:pushforward:product-of-lifts-cocartesian")
    assert {name for name, r in opf.items() if not r.passed} == set(named)
    for name in named:
        assert opf[name].detail == "the extension does not induce the expected module"


# --- quotients of fibre products built on codes -----------------------------


def _class_one_of_z4_on_z16():
    """The extension of class (1,) of Z4 acting trivially on Z16 (|E| = 64)."""
    from bfly.actions import trivial_module

    m = trivial_module(cyclic_group(4), cyclic_group(16))
    return m, extension_from_2cocycle(cohomology(m, 2).representative((1,)))


def test_baer_sum_answers_under_the_default_cap():
    """E x_C E has order 1024; the sum has order 64 and no larger group is built."""
    _, e = _class_one_of_z4_on_z16()
    total = baer_sum(e, e)
    assert total.middle.order == 64
    assert class_of_extension(total).coords == (2,)


def test_abelian_pushforward_answers_under_the_default_cap():
    """B' x| E has order 1024; the target has order 64 and no larger group is built."""
    from bfly.actions import identity_morphism

    m, e = _class_one_of_z4_on_z16()
    lift = pushforward_extension(e, identity_morphism(m))
    assert lift.target.middle.order == 64
    assert are_fibre_isomorphic(lift.target, e)


def test_product_of_lifts_builds_each_pullback_once(monkeypatch):
    """The lifts' product reads p1, p2 and the pair index off the two
    pullbacks of its fibre products, so one call builds two."""
    from bfly import groups
    from bfly.universal import product_of_lifts

    real, builds = groups.pullback, []

    def counted(f, g):
        builds.append((f.dom.order, g.dom.order))
        return real(f, g)

    monkeypatch.setattr(groups, "pullback", counted)
    m = dict(standard_modules())["Z2-Z3-a1"]
    calls = 0
    for ext in h2_catalog(m):
        for beta in all_module_morphisms(m, m):
            lift = pushforward_extension(ext, beta)
            builds.clear()
            product_of_lifts(lift, lift)
            assert len(builds) == 2
            calls += 1
    assert calls > 1


def test_quotients_on_codes_match_the_two_step_definitions():
    """Over every pair of each module's h2 catalog, the Baer sum and the
    composition square equal the whole pullback followed by the quotient, and
    every pushforward along a module morphism equals the whole semidirect
    product followed by the quotient, table for table."""
    from bfly.universal import composition_square
    from reference_loops import (
        ref_baer_quotient,
        ref_composition_square,
        ref_pushforward_extension,
    )

    mods = standard_modules()
    pushed = 0
    for name, m in mods:
        cat = h2_catalog(m)
        for e1, e2 in itertools.product(cat, repeat=2):
            got, want = baer_sum(e1, e2), ref_baer_quotient(e1, e2)[2]
            assert got == want and got.middle == want.middle and got.module == want.module, name
            square, want_square = composition_square(e1, e2), ref_composition_square(e1, e2)
            assert square == want_square, name
            assert square.target.module == want_square.target.module == m
        for _, m2 in mods:
            if m2.base != m.base:
                continue
            for beta in all_module_morphisms(m, m2):
                for ext in cat:
                    got, want = pushforward_extension(ext, beta), ref_pushforward_extension(ext, beta)
                    assert got == want and got.target.module == want.target.module == m2, name
                    pushed += 1
    assert pushed > 100
