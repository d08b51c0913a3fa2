"""Group actions by automorphisms and modules over a fixed base group.

A module here is an abelian coefficient group together with an action of
the base group by automorphisms; module morphisms are the equivariant
homomorphisms between coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import BaseMismatch, NotAbelian, NotAnAction, NotEquivariant
from .groups import (
    FiniteGroup,
    GroupHom,
    ProductResult,
    _hom,
    build_hom,
    direct_product,
)


@dataclass(frozen=True)
class GroupAction:
    """An action of ``actor`` on ``object`` by automorphisms.

    ``act[g, x]`` is g*x.
    """

    actor: FiniteGroup
    object: FiniteGroup
    act: np.ndarray

    def __call__(self, g: int, x: int) -> int:
        return int(self.act[g, x])

    def is_trivial(self) -> bool:
        return bool(np.array_equal(self.act, np.tile(np.arange(self.object.order),
                                                     (self.actor.order, 1))))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroupAction)
            and self.actor == other.actor
            and self.object == other.object
            and np.array_equal(self.act, other.act)
        )

    def __hash__(self) -> int:
        return hash((self.actor, self.object, self.act.tobytes()))


def build_action(actor: FiniteGroup, obj: FiniteGroup, act) -> GroupAction:
    arr = np.asarray(act, dtype=np.int64)
    if arr.shape != (actor.order, obj.order):
        raise NotAnAction(
            f"act table has shape {arr.shape}, expected "
            f"({actor.order}, {obj.order})"
        )
    if arr.min() < 0 or arr.max() >= obj.order:
        raise NotAnAction("act entries must be object element indices")
    if not np.array_equal(arr[0], np.arange(obj.order)):
        x = int(np.argwhere(arr[0] != np.arange(obj.order))[0][0])
        raise NotAnAction(f"identity must act trivially; 0*{x} = {arr[0, x]}")
    witness = _kernels.action_compat_violation(actor.table, arr)
    if witness is not None:
        g, h, x = witness
        raise NotAnAction(f"({g}+{h})*{x} != {g}*({h}*{x})")
    for g in actor.elements():
        row = arr[g]
        if len(set(row.tolist())) != obj.order:
            raise NotAnAction(f"{g}*(-) is not a bijection")
        w = _kernels.hom_violation(obj.table, obj.table, row)
        if w is not None:
            raise NotAnAction(
                f"{g}*(-) is not an automorphism: fails at ({w[0]}, {w[1]})"
            )
    arr = arr.copy()
    arr.setflags(write=False)
    return GroupAction(actor=actor, object=obj, act=arr)


def trivial_action(actor: FiniteGroup, obj: FiniteGroup) -> GroupAction:
    act = np.tile(np.arange(obj.order), (actor.order, 1))
    act.setflags(write=False)
    return GroupAction(actor=actor, object=obj, act=act)


@dataclass(frozen=True)
class CModule:
    """Abelian coefficients with a base-group action by automorphisms."""

    base: FiniteGroup
    coeff: FiniteGroup
    action: GroupAction

    def xi(self, c: int, b: int) -> int:
        return int(self.action.act[c, b])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, CModule)
            and self.base == other.base
            and self.coeff == other.coeff
            and self.action == other.action
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.base, self.coeff, self.action))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "trivial" if self.action.is_trivial() else "twisted"
        return (f"<module: base order {self.base.order}, coeff order "
                f"{self.coeff.order}, {kind}>")


def build_cmodule(base: FiniteGroup, coeff: FiniteGroup, action) -> CModule:
    if not coeff.is_abelian():
        a = next(
            (a, b)
            for a in coeff.elements()
            for b in coeff.elements()
            if coeff.add(a, b) != coeff.add(b, a)
        )
        raise NotAbelian(f"coefficients must be abelian; {a} do not commute")
    if isinstance(action, GroupAction):
        if action.actor != base or action.object != coeff:
            raise BaseMismatch("action does not match base/coefficients")
        act = build_action(base, coeff, action.act)
    else:
        act = build_action(base, coeff, action)
    return CModule(base=base, coeff=coeff, action=act)


def _cmodule(base: FiniteGroup, coeff: FiniteGroup, act) -> CModule:
    """A module that is one by construction; not validated."""
    act = np.asarray(act, dtype=np.int64)
    act.setflags(write=False)
    return CModule(base=base, coeff=coeff,
                   action=GroupAction(actor=base, object=coeff, act=act))


def trivial_module(base: FiniteGroup, coeff: FiniteGroup) -> CModule:
    return build_cmodule(base, coeff, trivial_action(base, coeff))


@dataclass(frozen=True)
class CModuleMorphism:
    """Equivariant homomorphism between modules over the same base."""

    dom: CModule
    cod: CModule
    hom: GroupHom

    def __call__(self, b: int) -> int:
        return self.hom(b)

    def is_identity(self) -> bool:
        return self.dom == self.cod and np.array_equal(
            self.hom.map, np.arange(self.dom.coeff.order)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CModuleMorphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.hom == other.hom
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.hom))


def equivariance_failures(dom: GroupAction, cod: GroupAction, obj_maps, actor_maps):
    """bad[k, g, x] iff obj_maps[k](g*x) != actor_maps[k](g) * obj_maps[k](x).

    The one definition of equivariance for pairs of maps between two
    actions: module morphisms take the identity on the actor, crossed-module
    morphisms (f2, f1).  Rows broadcast, so one pair or many are one call.
    """
    obj_maps, actor_maps = np.asarray(obj_maps), np.asarray(actor_maps)
    return obj_maps[:, dom.act] != cod.act[actor_maps[:, :, None], obj_maps[:, None, :]]


def cmodule_morphism(dom: CModule, cod: CModule, hom) -> CModuleMorphism:
    if dom.base != cod.base:
        raise BaseMismatch("module morphisms require the same base group")
    if not isinstance(hom, GroupHom):
        hom = build_hom(dom.coeff, cod.coeff, hom)
    if hom.dom != dom.coeff or hom.cod != cod.coeff:
        raise BaseMismatch("hom does not match module coefficients")
    bad = equivariance_failures(dom.action, cod.action, hom.map[None],
                                np.arange(dom.base.order)[None])[0]
    if bad.any():
        c, b = (int(i) for i in np.argwhere(bad)[0])
        raise NotEquivariant(
            f"f(xi({c},{b})) = {hom(dom.xi(c, b))} but "
            f"xi'({c}, f({b})) = {cod.xi(c, hom(b))}"
        )
    return CModuleMorphism(dom=dom, cod=cod, hom=hom)


def _cmodule_morphism(dom: CModule, cod: CModule, mapping) -> CModuleMorphism:
    """An equivariant homomorphism by construction; not validated."""
    return CModuleMorphism(dom=dom, cod=cod, hom=_hom(dom.coeff, cod.coeff, mapping))


def identity_morphism(m: CModule) -> CModuleMorphism:
    return _cmodule_morphism(m, m, np.arange(m.coeff.order))


def zero_morphism(dom: CModule, cod: CModule) -> CModuleMorphism:
    if dom.base != cod.base:
        raise BaseMismatch("module morphisms require the same base group")
    return _cmodule_morphism(dom, cod, np.zeros(dom.coeff.order, dtype=np.int64))


def negate(beta: CModuleMorphism) -> CModuleMorphism:
    """b |-> -beta(b); valid because the codomain is abelian."""
    return _cmodule_morphism(beta.dom, beta.cod, beta.cod.coeff.inv[beta.hom.map])


def add_morphisms(f: CModuleMorphism, g: CModuleMorphism) -> CModuleMorphism:
    """Pointwise sum of parallel morphisms (abelian hom-sets)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise BaseMismatch("can only add parallel module morphisms")
    return _cmodule_morphism(f.dom, f.cod, f.cod.coeff.table[f.hom.map, g.hom.map])


def compose_morphisms(outer: CModuleMorphism, inner: CModuleMorphism) -> CModuleMorphism:
    if inner.cod != outer.dom:
        raise BaseMismatch("module morphism composition mismatch")
    return _cmodule_morphism(inner.dom, outer.cod, outer.hom.map[inner.hom.map])


@dataclass(frozen=True)
class ModuleProductResult:
    module: CModule
    proj1: CModuleMorphism
    proj2: CModuleMorphism
    inj1: CModuleMorphism
    inj2: CModuleMorphism
    product: ProductResult


def cmodule_product(m1: CModule, m2: CModule) -> ModuleProductResult:
    """Componentwise action on coeff1 x coeff2, with projections.

    A componentwise action of two actions is an action, and the structure
    maps are equivariant, so all of it is built without re-validation.
    """
    if m1.base != m2.base:
        raise BaseMismatch("module product requires the same base group")
    prod = direct_product(m1.coeff, m2.coeff)
    n2 = m2.coeff.order
    act = m1.action.act[:, :, None] * n2 + m2.action.act[:, None, :]
    module = _cmodule(m1.base, prod.group, act.reshape(m1.base.order, -1))
    return ModuleProductResult(
        module,
        CModuleMorphism(module, m1, prod.proj1),
        CModuleMorphism(module, m2, prod.proj2),
        CModuleMorphism(m1, module, prod.inj1),
        CModuleMorphism(m2, module, prod.inj2),
        prod,
    )


def codiagonal(m: CModule) -> tuple[ModuleProductResult, CModuleMorphism]:
    """The product module M x M and the sum map (b1, b2) |-> b1 + b2."""
    prod = cmodule_product(m, m)
    return prod, pair_codiagonal(prod, m)


def pair_codiagonal(prod: ModuleProductResult, target: CModule) -> CModuleMorphism:
    """Codiagonal for a product of two copies of ``target``."""
    return _cmodule_morphism(prod.module, target, target.coeff.table.ravel())


def all_module_morphisms(dom: CModule, cod: CModule) -> list[CModuleMorphism]:
    """All equivariant homomorphisms dom -> cod: the equivariant rows of all_homs."""
    from .groups import all_homs

    if dom.base != cod.base:
        raise BaseMismatch("module morphisms require the same base group")
    homs = all_homs(dom.coeff, cod.coeff)
    bad = equivariance_failures(dom.action, cod.action, [f.map for f in homs],
                                np.arange(dom.base.order)[None])
    return [CModuleMorphism(dom, cod, f)
            for f, b in zip(homs, bad.any(axis=(1, 2))) if not b]


def induced_module(j: GroupHom, moved: np.ndarray, p: GroupHom, error) -> CModule:
    """The module on B = dom(j) over C = cod(p) with c*b = j^-1(g * j(b)).

    ``moved[g, b]`` is g * j(b) under an action by automorphisms of
    E = dom(p) on cod(j); p must be surjective, so its fibres are cosets of
    one size.  The value must not depend on the lift g of c and must land
    in j(B); the first (c, b) that fails raises ``error``.  With those two
    checks the result is an action by automorphisms, so it is not
    re-validated; B must be abelian, which the callers check.
    """
    b_grp, c_grp = j.dom, p.cod
    in_b = np.full(j.cod.order, -1, dtype=np.int64)
    in_b[j.map] = np.arange(b_grp.order)
    lifts = moved[np.argsort(p.map, kind="stable")].reshape(c_grp.order, -1, b_grp.order)
    differ = (lifts != lifts[:, :1]).any(axis=1)
    act = in_b[lifts[:, 0]]
    bad = differ | (act < 0)
    if bad.any():
        c, b = (int(i) for i in np.argwhere(bad)[0])
        if differ[c, b]:
            raise error(f"lifts of {c} act differently on kernel element {b}")
        raise error(f"action of {c} leaves the kernel at {b}")
    return _cmodule(c_grp, b_grp, act)
