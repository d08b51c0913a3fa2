"""Acceptance suites: named, deterministic property checks.

Each suite returns a list of CheckResult; the CLI `verify` subcommand
renders them as stable text or JSON.  Check names follow the pattern
area:property:instance so a failing line identifies both the law and the
object that broke it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .actions import (
    CModule,
    CModuleMorphism,
    all_module_morphisms,
    build_action,
    cmodule_morphism,
    cmodule_product,
    compose_morphisms,
    identity_morphism,
    trivial_module,
)
from .bridges import (
    class_of_crossed_extension,
    classes_of_crossed_extensions,
    cocycle_of_extension,
    extension_from_2cocycle,
    push_classes,
)
from .butterflies import (
    Butterfly,
    build_butterfly,
    build_crossed_extension,
    build_xext_morphism,
    compose_butterflies,
    find_butterfly_iso,
    flip,
    identity_butterfly,
    inverse_witness,
    is_flippable,
    butterfly_beta,
    morphism_to_butterfly,
    phi,
    pushforward_xext,
    tensor_unit_comparison,
    tensor_xext,
    unit_xext,
)
from .catalog import (
    h2_catalog,
    h3_catalog,
    identity_xext_family,
    standard_modules,
)
from .cohomology import (
    BRUTE_FORCE_CAP,
    _nonzero_tuples,
    cohomology,
    cohomology_brute,
    cyclic_group,
    z1,
    zero_cochain,
)
from .crossed import build_crossed_module
from .errors import LawViolation, require
from .extensions import (
    AbelianExtension,
    are_fibre_isomorphic,
    baer_sum,
    build_extension,
    fibre_morphisms,
    pushforward_extension,
    unit_extension,
)
from .universal import (
    check_cocartesian_extension,
    check_cocartesian_xext,
    composition_square,
    extension_product,
    jointly_generate_square,
    product_of_lifts,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(results: list[CheckResult], name: str, fn) -> None:
    try:
        detail = fn()
        results.append(CheckResult(name, True, detail or "ok"))
    except LawViolation as exc:
        results.append(CheckResult(name, False, str(exc) or "assertion failed"))
    except Exception as exc:  # noqa: BLE001 - a failing law must not stop the run
        results.append(
            CheckResult(name, False, f"{type(exc).__name__}: {exc}")
        )


def _pairs(items, cap: int):
    return list(itertools.islice(itertools.product(items, repeat=2), cap))


def _checked(b: Butterfly) -> Butterfly:
    """b once build_butterfly has checked its four conditions.

    The constructions build by invariant, so a check whose law is that a
    construction yields a butterfly runs what it built through this.
    """
    return build_butterfly(b.dom, b.cod, b.f_group, b.kappa, b.iota, b.delta, b.gamma)


def _checked_extension(e: AbelianExtension, module: CModule) -> AbelianExtension:
    """e once build_extension has checked that it is short exact; it must
    induce ``module``."""
    valid = build_extension(e.kernel_arrow, e.quotient_arrow)
    require(valid.module == module, "the extension does not induce the expected module")
    return valid


def _checked_morphism(beta: CModuleMorphism) -> CModuleMorphism:
    """beta once cmodule_morphism has checked that its map is an equivariant
    homomorphism."""
    return cmodule_morphism(beta.dom, beta.cod, beta.hom.map)


# --- criterion 1 ----------------------------------------------------------


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    z2, z3 = cyclic_group(2), cyclic_group(3)
    inv = np.asarray([[0, 1, 2], [0, 2, 1]])
    from .actions import build_cmodule

    m22 = trivial_module(z2, z2)
    m33 = trivial_module(z3, z3)
    m23 = build_cmodule(z2, z3, inv)

    def ground(m, d, want):
        def fn():
            got = cohomology(m, d).order
            require(got == want, f"order {got}, expected {want}")
            return f"order {got}"
        return fn

    _check(out, "oracle:h2:z2-z2-trivial:order", ground(m22, 2, 2))
    _check(out, "oracle:h3:z2-z2-trivial:order", ground(m22, 3, 2))
    _check(out, "oracle:h2:z3-z3-trivial:order", ground(m33, 2, 3))
    _check(out, "oracle:h2:z2-z3-inversion:order", ground(m23, 2, 1))
    _check(out, "oracle:h3:z2-z3-inversion:order", ground(m23, 3, 1))

    for degree in (1, 2, 3):
        def brute_all(d=degree):
            n = 0
            for name, m in standard_modules():
                k = len(_nonzero_tuples(m.base.order, d))
                if m.coeff.order ** k > BRUTE_FORCE_CAP:
                    continue
                s, b = cohomology(m, d).order, cohomology_brute(m, d)
                require(s == b, f"{name}: solver {s} != brute {b}")
                n += 1
            return f"{n} systems agree"
        _check(out, f"oracle:solver-matches-brute:degree-{degree}", brute_all)
    return out


# --- criterion 2 ----------------------------------------------------------


def suite_h2_pi0(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name, m in standard_modules():
        cat = h2_catalog(m)
        h2 = cohomology(m, 2)

        def descends(cat=cat, h2=h2, m=m):
            n = 0
            for e1, e2 in _pairs(cat, 16):
                lhs = h2.classify(cocycle_of_extension(_checked_extension(baer_sum(e1, e2), m)))
                rhs = h2.classify(cocycle_of_extension(e1)) + h2.classify(
                    cocycle_of_extension(e2)
                )
                require(lhs == rhs, "Baer sum does not add cocycle classes")
                n += 1
            return f"{n} pairs"
        _check(out, f"h2:baer-sum-adds-classes:{name}", descends)

        def zero_is_unit(m=m):
            e = extension_from_2cocycle(zero_cochain(m, 2))
            require(are_fibre_isomorphic(e, unit_extension(m)))
            return "fibre isomorphism found"
        _check(out, f"h2:zero-cocycle-gives-unit:{name}", zero_is_unit)
    return out


# --- criterion 3 ----------------------------------------------------------


def suite_h2_pi1(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name, m in standard_modules():
        def match(m=m):
            unit = unit_extension(m)
            n_auto = len(fibre_morphisms(unit, unit))
            n_z1 = z1(m).group.order
            require(n_auto == n_z1, f"|Aut| {n_auto} != |Z1| {n_z1}")
            return f"both {n_auto}"
        _check(out, f"h2:unit-automorphisms-match-z1:{name}", match)
    return out


# --- criterion 4 ----------------------------------------------------------


def _loop_pool(m, cap: int = 5):
    loops = [identity_butterfly(unit_xext(m))]
    loops += [phi(e) for e in h2_catalog(m)[:cap]]
    return loops


def suite_butterfly_laws(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(seed)
    mods = standard_modules()

    def unit_laws():
        n = 0
        for name, m in mods:
            ident = identity_butterfly(unit_xext(m))
            for f in _loop_pool(m, cap=3):
                require(find_butterfly_iso(_checked(compose_butterflies(ident, f)), f))
                require(find_butterfly_iso(_checked(compose_butterflies(f, ident)), f))
                n += 2
        require(n >= 50, f"only {n} unit-law instances")
        return f"{n} composites"
    _check(out, "butterfly:compose:unit-laws", unit_laws)

    def associativity():
        n = 0
        for name, m in mods:
            pool = _loop_pool(m, cap=4)
            for _ in range(2):
                f, g, h = (pool[int(rng.integers(len(pool)))] for _ in range(3))
                gf, hg = _checked(compose_butterflies(g, f)), _checked(compose_butterflies(h, g))
                lhs = _checked(compose_butterflies(h, gf))
                rhs = _checked(compose_butterflies(hg, f))
                require(find_butterfly_iso(lhs, rhs), "associativity failed")
                n += 1
        require(n >= 40, f"only {n} triples")
        return f"{n} triples"
    _check(out, "butterfly:compose:associativity", associativity)

    def beta_functorial():
        n = 0
        for name, m in mods:
            pool = _loop_pool(m, cap=3)
            for f, g in _pairs(pool, 6):
                bf = _checked_morphism(butterfly_beta(_checked(compose_butterflies(g, f))))
                require(bf == compose_morphisms(
                    _checked_morphism(butterfly_beta(g)), _checked_morphism(butterfly_beta(f))
                ))
                n += 1
            # a genuinely non-identity beta via chained pushforward lifts
            betas = [
                b for b in all_module_morphisms(m, m) if not b.is_identity()
            ]
            if betas:
                b1 = betas[0]
                e = unit_xext(m)
                r1, l1 = pushforward_xext(e, b1)
                r2, l2 = pushforward_xext(r1, b1)
                q1, q2 = morphism_to_butterfly(l1), morphism_to_butterfly(l2)
                composite = _checked(compose_butterflies(q2, q1))
                require(_checked_morphism(butterfly_beta(composite)) == compose_morphisms(b1, b1))
                n += 1
        return f"{n} pairs"
    _check(out, "butterfly:compose:beta-functorial", beta_functorial)

    def beta_iso_invariant():
        n = 0
        for name, m in mods[:8]:
            ident = identity_butterfly(unit_xext(m))
            for f in _loop_pool(m, cap=2):
                c = _checked(compose_butterflies(ident, f))
                iso = find_butterfly_iso(c, f)
                require(iso is not None)
                require(_checked_morphism(butterfly_beta(c)) == _checked_morphism(butterfly_beta(f)))
                n += 1
        return f"{n} isomorphic pairs"
    _check(out, "butterfly:beta:iso-invariant", beta_iso_invariant)

    def q_functorial():
        n = 0
        for name, m in mods:
            cmp = tensor_unit_comparison(unit_xext(m))
            cmp = build_xext_morphism(cmp.dom, cmp.cod, cmp.beta, cmp.f2, cmp.f1)
            bf = _checked(morphism_to_butterfly(cmp))
            require(butterfly_beta(bf).is_identity())
            require(is_flippable(bf))
            n += 1
        return f"{n} comparison butterflies"
    _check(out, "butterfly:from-morphism:tensor-unit-comparison", q_functorial)
    return out


# --- criterion 5 ----------------------------------------------------------


def suite_inverse(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    mods = standard_modules()
    for name, m in mods:
        def inverse_law(m=m):
            n = 0
            for ename, e in h3_catalog(m, mods):
                w = _checked(inverse_witness(e))
                require(is_flippable(w), f"{ename}: witness not flippable")
                require(butterfly_beta(w).is_identity())
                comp = _checked(compose_butterflies(_checked(flip(w)), w))
                require(find_butterfly_iso(
                    comp, identity_butterfly(w.dom)
                ), f"{ename}: flip(w).w is not the identity")
                n += 1
            return f"{n} crossed extensions"
        _check(out, f"h3:inverse-witness:{name}", inverse_law)
    return out


# --- criterion 6 ----------------------------------------------------------


def suite_phi(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    mods = standard_modules()
    for name, m in mods:
        def phi_unit(m=m):
            require(find_butterfly_iso(
                phi(unit_extension(m)), identity_butterfly(unit_xext(m))
            ), "phi of the split extension is not the identity butterfly")
            return "ok"
        _check(out, f"h3:phi-sends-unit-to-identity:{name}", phi_unit)

        def phi_monoidal(m=m):
            cat = h2_catalog(m)
            loops = [phi(e) for e in cat]
            n = 0
            for (e1, p1), (e2, p2) in _pairs(list(zip(cat, loops)), 9):
                lhs = phi(baer_sum(e1, e2))
                rhs = _checked(compose_butterflies(p2, p1))
                require(find_butterfly_iso(lhs, rhs), "phi is not monoidal")
                n += 1
            return f"{n} pairs"
        _check(out, f"h3:phi-monoidal:{name}", phi_monoidal)

    for name in ("Z2-Z2-a0", "Z3-Z3-a0"):
        m = dict(mods)[name]

        def reflects(m=m):
            cat = h2_catalog(m)
            loops = [phi(e) for e in cat]
            n = 0
            for (e1, p1), (e2, p2) in itertools.product(zip(cat, loops), repeat=2):
                same_fibre = are_fibre_isomorphic(e1, e2)
                same_phi = find_butterfly_iso(p1, p2) is not None
                require(same_fibre == same_phi, "phi does not reflect isomorphism")
                n += 1
            return f"{n} comparisons"
        _check(out, f"h3:phi-reflects-fibre-isomorphism:{name}", reflects)
    return out


# --- criterion 7 ----------------------------------------------------------


def suite_pushforward_cokernel(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name, m in standard_modules():
        def square(m=m):
            cat = h2_catalog(m)
            betas = all_module_morphisms(m, m)
            product = cmodule_product(m, m).module
            n = 0
            for e1, e2 in _pairs(cat, 4):
                sq = composition_square(e1, e2)
                _checked_extension(sq.source, product)
                _checked_extension(sq.target, m)
                for g in cat[:2]:
                    verdicts = check_cocartesian_extension(sq, sq.source, g, betas[:4])
                    require(all(verdicts), "composite square is not cocartesian")
                    n += len(verdicts)
            return f"{n} factorization checks"
        _check(out, f"h3:compose-square-is-pushforward:{name}", square)
    return out


# --- criterion 8 ----------------------------------------------------------


def suite_opfibration(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    mods = standard_modules()
    by_base: dict = {}
    for name, m in mods:
        by_base.setdefault(m.base.table.tobytes(), []).append((name, m))

    def dim1():
        n = 0
        for key, group_mods in sorted(by_base.items()):
            for (n1, m1), (n2, m2) in itertools.product(group_mods, repeat=2):
                betas = all_module_morphisms(m1, m2)[:2]
                for beta in betas:
                    src = unit_extension(m1)
                    if src.middle.order > 16:
                        continue
                    lift = pushforward_extension(src, beta)
                    _checked_extension(lift.target, beta.cod)
                    for g in h2_catalog(m2)[:2]:
                        verdicts = check_cocartesian_extension(
                            lift, src, g, all_module_morphisms(m2, m2)[:2])
                        require(all(verdicts), f"dim-1 lift fails UP ({n1} -> {n2})")
                        n += len(verdicts)
        return f"{n} factorization checks"
    _check(out, "h2:pushforward:cocartesian-universal-property", dim1)

    def dim2():
        n = 0
        for key, group_mods in sorted(by_base.items()):
            for (n1, m1), (n2, m2) in itertools.product(group_mods[:2], repeat=2):
                for beta in all_module_morphisms(m1, m2)[:1]:
                    src = unit_xext(m1)
                    if src.e2.order > 12 or src.e1.order > 12:
                        continue
                    result, lift = pushforward_xext(src, beta)
                    act = build_action(src.e1, result.e2, result.xm.action.act)
                    xm = build_crossed_module(result.xm.boundary, act)
                    valid = build_crossed_extension(result.j, xm, result.p)
                    require(valid.module == beta.cod, "pushforward misses the target module")
                    build_xext_morphism(src, valid, beta, lift.f2, lift.f1)
                    for g in [result, unit_xext(m2)]:
                        verdicts = check_cocartesian_xext(
                            lift, g, all_module_morphisms(m2, m2)[:2])
                        require(all(verdicts), f"dim-2 lift fails UP ({n1} -> {n2})")
                        n += len(verdicts)
        return f"{n} factorization checks"
    _check(out, "h3:pushforward:cocartesian-universal-property", dim2)

    def products():
        n = 0
        for name, m in mods[:8]:
            e = unit_extension(m)
            if e.middle.order > 8:
                continue
            betas = all_module_morphisms(m, m)[:2]
            product = cmodule_product(m, m).module
            for beta in betas:
                l1 = pushforward_extension(e, beta)
                pl = product_of_lifts(l1, l1)
                _checked_extension(pl.source, product)
                _checked_extension(pl.target, product)
                _checked_morphism(pl.beta)
                tgt = extension_product(l1.target, l1.target)
                verdicts = check_cocartesian_extension(
                    pl, pl.source, tgt, all_module_morphisms(pl.beta.cod, pl.beta.cod)[:2])
                require(all(verdicts), f"product of lifts fails UP over {name}")
                n += len(verdicts)
        return f"{n} factorization checks"
    _check(out, "h2:pushforward:product-of-lifts-cocartesian", products)

    def jointly():
        names = []
        for bname, b in [("Z2", cyclic_group(2)), ("Z3", cyclic_group(3)),
                         ("Z4", cyclic_group(4))]:
            require(jointly_generate_square(b), bname)
            names.append(bname)
        return ", ".join(names)
    _check(out, "h3:kernel-pair:jointly-generating", jointly)
    return out


# --- criterion 9 ----------------------------------------------------------


def _pushforward_equivariant(m, cat, mods) -> str:
    """Class of a pushforward = pushed class, for the first three extensions
    along the first two morphisms into the first other module over m's base.

    The extensions' classes, the pushed classes and, per morphism, the
    pushforwards' classes are each classified as one stack.
    """
    n = 0
    for name2, m2 in mods:
        if m2.base != m.base or m2 == m:
            continue
        head = cat[:3]
        betas = all_module_morphisms(m, m2)[:2]
        pushed = push_classes(betas, classes_of_crossed_extensions([e for _, e in head]))
        for k, beta in enumerate(betas):
            results = [pushforward_xext(e, beta)[0] for _, e in head]
            lhs = classes_of_crossed_extensions(results)
            for (ename, _), got, want in zip(head, lhs, pushed[k * len(head):]):
                require(got == want, f"{ename} along {name2}")
                n += 1
        break
    return f"{n} pushforwards"


def suite_class_coherence(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    mods = standard_modules()
    rng = np.random.default_rng(seed)
    for name, m in mods:
        cat = h3_catalog(m, mods)
        h3 = cohomology(m, 3)

        def section_independent(cat=cat):
            n = 0
            for ename, e in cat:
                base = class_of_crossed_extension(e)
                for cls in classes_of_crossed_extensions([e], rng, 100):
                    require(cls == base, ename)
                    n += 1
            return f"{n} re-choices"
        _check(out, f"oracle:class:section-independent:{name}", section_independent)

        def vertical_invariant(cat=cat, m=m):
            n = 0
            for ename, e in cat:
                _, lift = pushforward_xext(e, identity_morphism(m))
                cmp = tensor_unit_comparison(e)
                base, lifted, compared = classes_of_crossed_extensions(
                    [e, lift.cod, cmp.cod]
                )
                require(lifted == base, ename)
                require(compared == base, ename)
                n += 2
            return f"{n} vertical comparisons"
        _check(out, f"oracle:class:vertical-invariant:{name}", vertical_invariant)

        def tensor_additive(cat=cat):
            n = 0
            for (n1, e1), (n2, e2) in _pairs(cat, 6):
                lhs, c1, c2 = classes_of_crossed_extensions([tensor_xext(e1, e2), e1, e2])
                require(lhs == c1 + c2, f"{n1} (x) {n2}")
                n += 1
            return f"{n} pairs"
        _check(out, f"oracle:class:tensor-additive:{name}", tensor_additive)

        def inverse_law(cat=cat):
            n = 0
            from .butterflies import inverse_xext

            for ename, e in cat:
                c, ci = classes_of_crossed_extensions([e, inverse_xext(e)])
                require((c + ci).is_zero(), ename)
                n += 1
            return f"{n} extensions"
        _check(out, f"oracle:class:inverse-law:{name}", inverse_law)

        _check(out, f"oracle:class:pushforward-equivariant:{name}",
               lambda cat=cat, m=m: _pushforward_equivariant(m, cat, mods))

        def realized(cat=cat, h3=h3):
            found = classes_of_crossed_extensions([e for _, e in cat])
            classes = {ename: cls.coords for (ename, _), cls in zip(cat, found)}
            require(classes["unit"] == h3.zero().coords, "the unit's class is not zero")
            for ename, coords in classes.items():
                require(len(coords) == len(h3.factors)
                        and all(0 <= c < f for c, f in zip(coords, h3.factors)),
                        f"{ename}: class {coords} outside {h3.factors}")
            return f"|H3|={h3.order}; realized classes: {sorted(set(classes.values()))}"
        _check(out, f"oracle:class:realized:{name}", realized)

    def identity_family():
        n = 0
        for e in identity_xext_family():
            require(class_of_crossed_extension(e).is_zero())
            n += 1
        return f"{n} identity crossed modules"
    _check(out, "oracle:class:identity-family-trivial", identity_family)
    return out


SUITES = {
    "oracle": suite_oracle,
    "h2-pi0": suite_h2_pi0,
    "h2-pi1": suite_h2_pi1,
    "butterfly-laws": suite_butterfly_laws,
    "inverse": suite_inverse,
    "phi": suite_phi,
    "pushforward-cokernel": suite_pushforward_cokernel,
    "opfibration": suite_opfibration,
    "class-coherence": suite_class_coherence,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed))
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
