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


class InvalidSubgroupStep(InvalidInput):
    pass


class InvalidVariant(InvalidInput):
    pass


class InconclusiveIrreducibility(LieColourError):
    """Burnside closure is proper but no invariant subspace was exhibited.

    Such a module is reducible over C, but over Q(zeta_m) it can be
    irreducible without being absolutely irreducible (its commutant is then
    a division algebra larger than Q(zeta_m)), and a reducible verdict needs
    a witness over Q(zeta_m).  `closure_rank` and `commutant_dim` are the exact
    dimensions of the closure and the commutant when the Burnside test
    raised it; the catalog shipped with this package never triggers it.
    """

    def __init__(self, message, closure_rank=None, commutant_dim=None):
        super().__init__(message)
        self.closure_rank = closure_rank
        self.commutant_dim = commutant_dim


class InconclusiveIsomorphism(LieColourError):
    """Hom(V, W) has dimension >= 2, but no invertible element was found in
    it, so neither answer is certified."""


class NotCompletelyReducible(LieColourError):
    """A graded submodule has no invariant complement.  The certificate is
    `submodule`, a graded irreducible gmodule.Submodule S of the module:
    every map in intertwiners(module, S) vanishes on S, so none projects."""

    def __init__(self, message, submodule=None):
        super().__init__(message)
        self.submodule = submodule


class ClassificationMismatch(LieColourError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
