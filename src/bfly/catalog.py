"""The standard desk-scale catalog of groups, modules, and extensions.

Small bases C in {Z2, Z3, Z4, K4} and abelian kernels B in {Z2, Z3, Z4}
with every action of C on B, plus representative families of abelian and
crossed extensions over each module.  All enumeration orders are
deterministic so reports are reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .actions import (
    CModule,
    GroupAction,
    all_module_morphisms,
    build_action,
    build_cmodule,
)
from .bridges import extension_from_2cocycle
from .butterflies import (
    CrossedExtension,
    build_crossed_extension,
    tensor_xext,
    pushforward_xext,
    unit_xext,
)
from .cohomology import cohomology, cyclic_group
from .crossed import build_crossed_module, identity_crossed_module
from .extensions import AbelianExtension, unit_extension
from .groups import (
    FiniteGroup,
    _group,
    all_homs,
    build_group,
    build_hom,
    find_isomorphisms,
    get_order_cap,
    zero_hom,
)


def klein_group() -> FiniteGroup:
    table = [[(a ^ b) for b in range(4)] for a in range(4)]
    return build_group(table, name="K4")


def trivial_group() -> FiniteGroup:
    return build_group([[0]], name="1")


def standard_groups() -> dict[str, FiniteGroup]:
    return {
        "Z2": cyclic_group(2, "Z2"),
        "Z3": cyclic_group(3, "Z3"),
        "Z4": cyclic_group(4, "Z4"),
        "K4": klein_group(),
    }


def automorphism_permutations(b: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms of b as permutation arrays, sorted."""
    return [f.map for f in find_isomorphisms(b, b)]


def all_actions(c: FiniteGroup, b: FiniteGroup) -> list[GroupAction]:
    """Every action of c on b by automorphisms, in deterministic order."""
    perms = np.stack(automorphism_permutations(b))
    # sorted permutations have increasing base-|B| codes; the identity is the least
    radix = np.asarray([b.order ** k for k in range(b.order - 1, -1, -1)], dtype=object)
    aut = _group(np.searchsorted(perms @ radix, perms[:, perms] @ radix), f"Aut({b.name})")
    return [build_action(c, b, perms[h.map]) for h in all_homs(c, aut)]


def standard_modules() -> list[tuple[str, CModule]]:
    """The 22 named modules; a fresh list of the modules built once per process."""
    return list(_standard_modules())


@lru_cache(maxsize=1)
def _standard_modules() -> tuple[tuple[str, CModule], ...]:
    groups = standard_groups()
    out = []
    for cname in ["Z2", "Z3", "Z4", "K4"]:
        for bname in ["Z2", "Z3", "Z4"]:
            c, b = groups[cname], groups[bname]
            for i, act in enumerate(all_actions(c, b)):
                out.append((f"{cname}-{bname}-a{i}", build_cmodule(c, b, act.act)))
    return tuple(out)


def h2_catalog(module: CModule) -> list[AbelianExtension]:
    """The unit plus one bridge extension per cohomology class.

    A fresh list of the extensions built once per module, order cap and
    process: the cap is part of the key, so a lower cap misses and refuses
    what it must.  The bound holds the 22 standard modules.
    """
    return list(_h2_catalog(module, get_order_cap()))


@lru_cache(maxsize=32)
def _h2_catalog(module: CModule, cap: int) -> tuple[AbelianExtension, ...]:
    out = [unit_extension(module)]
    h2 = cohomology(module, 2)
    for coords in _all_coords(h2.factors):
        if any(coords):
            out.append(extension_from_2cocycle(h2.representative(coords)))
    return tuple(out)


def _all_coords(factors) -> list[tuple[int, ...]]:
    import itertools

    return list(itertools.product(*[range(f) for f in factors]))


def nontrivial_class_xext() -> CrossedExtension:
    """Z2 > Z4 -x2-> Z4 ->> Z2 with odd elements acting by negation.

    Carries the nonzero degree-3 class over the trivial (Z2, Z2) module.
    """
    z2, z4 = cyclic_group(2, "Z2"), cyclic_group(4, "Z4")
    bnd = build_hom(z4, z4, [0, 2, 0, 2])
    act = np.asarray(
        [[x if g % 2 == 0 else (-x) % 4 for x in range(4)] for g in range(4)]
    )
    xm = build_crossed_module(bnd, build_action(z4, z4, act))
    return build_crossed_extension(
        build_hom(z2, z4, [0, 2]), xm, build_hom(z4, z2, [0, 1, 0, 1])
    )


def trivial_class_spliced_xext() -> CrossedExtension:
    """Same shape as nontrivial_class_xext but with the trivial action."""
    from .actions import trivial_action

    z2, z4 = cyclic_group(2, "Z2"), cyclic_group(4, "Z4")
    bnd = build_hom(z4, z4, [0, 2, 0, 2])
    xm = build_crossed_module(bnd, trivial_action(z4, z4))
    return build_crossed_extension(
        build_hom(z2, z4, [0, 2]), xm, build_hom(z4, z2, [0, 1, 0, 1])
    )


def identity_xext_family() -> list[CrossedExtension]:
    """G = G identity crossed modules as crossed extensions over 1."""
    one = trivial_group()
    out = []
    for g in [cyclic_group(2, "Z2"), cyclic_group(3, "Z3")]:
        xm = identity_crossed_module(g)
        j = zero_hom(one, g)
        p = zero_hom(g, one)
        out.append(build_crossed_extension(j, xm, p))
    return out


def h3_catalog(
    module: CModule, modules: list[tuple[str, CModule]] | None = None
) -> list[tuple[str, CrossedExtension]]:
    """Crossed extensions over one module: unit, tensor, pushforwards, splices."""
    unit = unit_xext(module)
    out = [("unit", unit), ("tensor-unit-unit", tensor_xext(unit, unit))]
    if modules is None:
        modules = standard_modules()
    pushed = 0
    for name, other in modules:
        if other == module or other.base != module.base:
            continue
        for k, beta in enumerate(all_module_morphisms(other, module)):
            if not beta.hom.is_surjective():
                continue
            result, _ = pushforward_xext(unit_xext(other), beta)
            out.append((f"push-{name}-b{k}", result))
            pushed += 1
            break
        if pushed >= 2:
            break
    trivial_z2_on_z2 = (
        module.base.order == 2
        and module.coeff.order == 2
    )
    if trivial_z2_on_z2:
        out.append(("spliced-trivial", trivial_class_spliced_xext()))
        out.append(("spliced-nontrivial", nontrivial_class_xext()))
    return out
