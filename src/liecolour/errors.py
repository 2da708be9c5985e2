"""Exception hierarchy shared by the whole package.

Validation errors carry a witness (the offending pair/triple/entry) so a
failed axiom check can be reported precisely instead of as a bare boolean.
"""


class LieColourError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LieColourError, ValueError):
    """Malformed or inconsistent arguments (wrong group, wrong field, ...)."""


class InvalidCommutationFactor(LieColourError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InvalidMultiplier(LieColourError):
    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class AlgebraValidationError(LieColourError):
    """A colour-algebra axiom failed; `kind` is one of grading /
    antisymmetry / jacobi and `witness` the offending index tuple."""

    def __init__(self, kind, witness, message):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class ModuleValidationError(LieColourError):
    """Representation property or homogeneity failed; `witness` locates it."""

    def __init__(self, kind, witness, message):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class InvalidSubmodule(LieColourError):
    pass


class InvalidSubgroupStep(LieColourError):
    pass


class InvalidVariant(InvalidInput):
    pass


class InconclusiveIrreducibility(LieColourError):
    """Burnside closure is proper but no invariant subspace was exhibited.

    Over a field that is not algebraically closed this can happen for
    genuinely irreducible-but-not-absolutely-irreducible modules; the
    catalog shipped with this package never triggers it.
    """


class InconclusiveIsomorphism(LieColourError):
    """Hom(V, W) is nonzero, but no invertible element was found in it, so
    neither answer is certified."""


class NotCompletelyReducible(LieColourError):
    pass


class ClassificationMismatch(LieColourError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
