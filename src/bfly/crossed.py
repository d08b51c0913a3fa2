"""Crossed modules and their internal groupoids.

A crossed module is a homomorphism bnd: E2 -> E1 with an action of E1 on
E2 satisfying the pre-crossed identity bnd(g*x) = g + bnd(x) - g and the
Peiffer identity bnd(x1)*x2 = x1 + x2 - x1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import CModule, GroupAction, build_action, build_cmodule
from .errors import (
    ActionNotWellDefined,
    DomainMismatch,
    NotCentral,
    NotExactAtE1,
    PeifferViolation,
    PreCrossedViolation,
    require,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    SemidirectResult,
    build_hom,
    semidirect_product,
    subgroup_from_elements,
)


@dataclass(frozen=True)
class CrossedModule:
    boundary: GroupHom          # E2 -> E1
    action: GroupAction         # E1 acting on E2

    @property
    def e2(self) -> FiniteGroup:
        return self.boundary.dom

    @property
    def e1(self) -> FiniteGroup:
        return self.boundary.cod

    def act(self, g: int, x: int) -> int:
        return int(self.action.act[g, x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedModule)
            and self.boundary == other.boundary
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.boundary, self.action))


def build_crossed_module(boundary: GroupHom, action: GroupAction) -> CrossedModule:
    if action.actor != boundary.cod or action.object != boundary.dom:
        raise DomainMismatch("action must be of cod(boundary) on dom(boundary)")
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


@dataclass(frozen=True)
class InternalGroupoid:
    """The groupoid associated with a crossed module.

    total = E2 x| E1; d(x, g) = bnd(x) + g, c(x, g) = g.  The kernel
    sections are ker_c: x |-> (x, 0) and ker_d: x |-> (-x, bnd(x)); with
    these signs the identity-butterfly axioms hold on the nose.
    """

    total: FiniteGroup
    d: GroupHom
    c: GroupHom
    unit_section: GroupHom
    ker_d_section: GroupHom     # E2 -> total
    ker_c_section: GroupHom     # E2 -> total
    semidirect: SemidirectResult


def associated_groupoid(xm: CrossedModule) -> InternalGroupoid:
    sd = semidirect_product(xm.action)
    e1, e2 = xm.e1, xm.e2
    total = sd.group
    ng = e1.order
    bnd = xm.boundary
    d_map = np.asarray(
        [e1.add(bnd(x), g) for x in e2.elements() for g in e1.elements()]
    )
    d = build_hom(total, e1, d_map)
    c = sd.retraction
    unit_section = sd.inj_actor
    ker_c_section = sd.inj_normal
    kd = np.asarray([e2.neg(x) * ng + bnd(x) for x in e2.elements()])
    ker_d_section = build_hom(e2, total, kd)
    require(all(d(ker_d_section(x)) == 0 for x in e2.elements()))
    return InternalGroupoid(
        total=total,
        d=d,
        c=c,
        unit_section=unit_section,
        ker_d_section=ker_d_section,
        ker_c_section=ker_c_section,
        semidirect=sd,
    )


def identity_crossed_module(g: FiniteGroup) -> CrossedModule:
    """id: G -> G with the conjugation action."""
    from .groups import identity_hom

    act = np.asarray(
        [[g.conj(h, x) for x in g.elements()] for h in g.elements()]
    )
    return build_crossed_module(identity_hom(g), build_action(g, g, act))


def zero_boundary_crossed_module(
    coeff: FiniteGroup, base: FiniteGroup, action: GroupAction
) -> CrossedModule:
    """0: B -> C with a given action; Peiffer forces B abelian."""
    from .groups import zero_hom

    return build_crossed_module(zero_hom(coeff, base), action)


def induced_kernel_module(xm: CrossedModule, p: GroupHom) -> CModule:
    """The module structure on ker(boundary) induced through p.

    Requires p surjective with kernel the image of the boundary; the
    kernel must be central in E2 and the action of any lift of c must be
    independent of the lift.
    """
    if p.dom != xm.e1:
        raise DomainMismatch("p must have domain E1")
    if not p.is_surjective():
        raise NotExactAtE1("p is not surjective")
    if tuple(sorted(xm.boundary.image())) != p.kernel_elements():
        raise NotExactAtE1("kernel(p) differs from image(boundary)")

    ker = subgroup_from_elements(xm.e2, xm.boundary.kernel_elements())
    b_grp, emb = ker.group, ker.embedding
    pos = {e: i for i, e in enumerate(ker.elements)}

    e2 = xm.e2
    for b in ker.elements:
        for x in e2.elements():
            if e2.add(b, x) != e2.add(x, b):
                raise NotCentral(f"kernel element {b} and {x} do not commute")

    c_grp = p.cod
    lifts: dict[int, list[int]] = {c: [] for c in c_grp.elements()}
    for g in xm.e1.elements():
        lifts[p(g)].append(g)
    act = np.zeros((c_grp.order, b_grp.order), dtype=np.int64)
    for c in c_grp.elements():
        g0 = lifts[c][0]
        for i, b in enumerate(ker.elements):
            img = xm.act(g0, b)
            if img not in pos:
                raise ActionNotWellDefined(
                    f"{g0}*{b} leaves the kernel"
                )
            act[c, i] = pos[img]
            for g in lifts[c][1:]:
                if xm.act(g, b) != img:
                    raise ActionNotWellDefined(
                        f"lifts {g0} and {g} of {c} act differently on {b}"
                    )
    return build_cmodule(c_grp, b_grp, act)
