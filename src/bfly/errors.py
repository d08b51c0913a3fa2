"""Exception hierarchy.

Every validation error carries the first violating witness found in
increasing index order, so failures are reproducible across runs.
"""


class BflyError(Exception):
    """Base class for all library errors."""


class LawViolation(BflyError):
    """A law or invariant that held by theory failed on actual data."""


def require(cond, msg: str = "") -> None:
    """Raise LawViolation(msg) unless cond; unlike assert, kept under -O."""
    if not cond:
        raise LawViolation(msg)


# --- group construction ---------------------------------------------------

class MalformedTable(BflyError):
    pass


class NotAssociative(BflyError):
    pass


class NoIdentity(BflyError):
    pass


class NoInverse(BflyError):
    pass


class OrderCapExceeded(BflyError):
    pass


# --- homomorphisms and diagrams ------------------------------------------

class NotHomomorphism(BflyError):
    pass


class DomainMismatch(BflyError):
    pass


class ImagesDoNotCommute(BflyError):
    pass


# --- actions and modules --------------------------------------------------

class NotAnAction(BflyError):
    pass


class InvalidAction(NotAnAction):
    pass


class NotAbelian(BflyError):
    pass


class NotEquivariant(BflyError):
    pass


class BaseMismatch(BflyError):
    pass


# --- crossed modules ------------------------------------------------------

class PreCrossedViolation(BflyError):
    pass


class PeifferViolation(BflyError):
    pass


class NotCentral(BflyError):
    pass


class ActionNotWellDefined(BflyError):
    pass


class NotExactAtE1(BflyError):
    pass


class NotExactAtE2(BflyError):
    pass


class NotCrossedModule(BflyError):
    pass


# --- extensions -----------------------------------------------------------

class NotExact(BflyError):
    pass


class KernelNotAbelian(BflyError):
    pass


class ModuleMismatch(BflyError):
    pass


# --- butterflies ----------------------------------------------------------

class ButterflyConditionViolation(BflyError):
    def __init__(self, condition: str, detail: str):
        self.condition = condition
        super().__init__(f"butterfly condition {condition}: {detail}")


class CooperatorFails(BflyError):
    pass


class TypeMismatch(BflyError):
    pass


class NotFlippable(BflyError):
    pass


class NotPi1Shape(BflyError):
    pass


# --- cocycle oracle -------------------------------------------------------

class NotACocycle(BflyError):
    pass


class SizeCap(BflyError):
    pass


# --- serialization --------------------------------------------------------

class SchemaError(BflyError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
