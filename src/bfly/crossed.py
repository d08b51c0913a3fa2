"""Crossed modules and their internal groupoids.

A crossed module is a homomorphism bnd: E2 -> E1 with an action of E1 on
E2 satisfying the pre-crossed identity bnd(g*x) = g + bnd(x) - g and the
Peiffer identity bnd(x1)*x2 = x1 + x2 - x1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import GroupAction
from .errors import (
    DomainMismatch,
    PeifferViolation,
    PreCrossedViolation,
    require,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    SemidirectResult,
    _hom,
    identity_hom,
    semidirect_product,
    zero_hom,
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
        return self is other or (
            isinstance(other, CrossedModule)
            and self.boundary == other.boundary
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.boundary, self.action))


def build_crossed_module(boundary: GroupHom, action: GroupAction) -> CrossedModule:
    if action.actor != boundary.cod or action.object != boundary.dom:
        raise DomainMismatch("action must be of cod(boundary) on dom(boundary)")
    e1, e2, bnd, act = boundary.cod, boundary.dom, boundary.map, action.act
    bad = bnd[act] != e1.conjugates(bnd)                 # bnd(g*x) vs g + bnd(x) - g
    if bad.any():
        g, x = (int(i) for i in np.argwhere(bad)[0])
        raise PreCrossedViolation(f"at (g, x) = ({g}, {x})")
    bad = act[bnd] != e2.conjugates()                    # bnd(x1)*x2 vs x1 + x2 - x1
    if bad.any():
        x1, x2 = (int(i) for i in np.argwhere(bad)[0])
        raise PeifferViolation(f"at (x1, x2) = ({x1}, {x2})")
    return CrossedModule(boundary=boundary, action=action)


def _xmod(boundary: GroupHom, act) -> CrossedModule:
    """A crossed module by construction, E1 acting by ``act``; not validated."""
    act = np.asarray(act, dtype=np.int64)
    act.setflags(write=False)
    return CrossedModule(boundary, GroupAction(boundary.cod, boundary.dom, act))


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
    # d and ker_d are homomorphisms by the pre-crossed and Peiffer identities
    sd = semidirect_product(xm.action)
    e1, e2, bnd = xm.e1, xm.e2, xm.boundary.map
    d = _hom(sd.group, e1, e1.table[bnd].ravel())        # (x, g) |-> bnd(x) + g
    ker_d_section = _hom(e2, sd.group, e2.inv * e1.order + bnd)
    require(not d.map[ker_d_section.map].any())
    return InternalGroupoid(
        total=sd.group,
        d=d,
        c=sd.retraction,
        unit_section=sd.inj_actor,
        ker_d_section=ker_d_section,
        ker_c_section=sd.inj_normal,
        semidirect=sd,
    )


def identity_crossed_module(g: FiniteGroup) -> CrossedModule:
    """id: G -> G with the conjugation action."""
    return _xmod(identity_hom(g), g.conjugates())


def zero_boundary_crossed_module(
    coeff: FiniteGroup, base: FiniteGroup, action: GroupAction
) -> CrossedModule:
    """0: B -> C with a given action; Peiffer forces B abelian."""
    return build_crossed_module(zero_hom(coeff, base), action)
