"""Exact tools for Lie colour algebras and their graded modules.

Everything is computed over cyclotomic fields with rational coordinates, so
axiom checks, irreducibility verdicts, isomorphism tests and the
classification driver are exact rather than numeric.
"""

from .abelian import (
    AbelianGroup,
    Character,
    CompositionSeries,
    QuotientGroup,
    Subgroup,
    dual_characters,
    element_add,
    full_subgroup,
    h_perp,
    jordan_holder,
    make_group,
    quotient,
    subgroup_from_generators,
    trivial_subgroup,
    twist_reps,
)
from .colouralg import (
    ColourAlgebra,
    bracket,
    discolour,
    is_superalgebra,
    make_algebra,
    recolour,
)
from .cyclotomic import CycloField, CycloNum, field
from .errors import (
    AlgebraValidationError,
    ClassificationMismatch,
    InconclusiveIrreducibility,
    InconclusiveIsomorphism,
    InvalidCommutationFactor,
    InvalidInput,
    InvalidMultiplier,
    InvalidSubgroupStep,
    InvalidSubmodule,
    InvalidVariant,
    LieColourError,
    ModuleValidationError,
    NotCompletelyReducible,
)
from .gmodule import (
    GradedModule,
    IrreducibilityVerdict,
    Submodule,
    coarsen,
    commutant,
    decompose,
    direct_sum,
    discolour_module,
    graded_quotient,
    intertwiners,
    is_graded_irreducible,
    is_isomorphic,
    iso_labels,
    make_module,
    parity_shift,
    recolour_module,
    regrade,
    spin,
    submodule_from_rows,
    submodule_to_module,
    twist,
)
from .grading import (
    CommutationFactor,
    Multiplier,
    ParitySplit,
    default_field,
    eps_eval,
    make_commutation_factor,
    multiplier_inverse,
    parity_split,
    scheunert_multiplier,
    trivial_multiplier,
    twisted_factor,
)
from .loopfunctor import (
    BijectionOutcome,
    LiftReport,
    LoopModule,
    bijection_F,
    iso_classes,
    iterate_lift,
    loop,
    twist_orbit,
)
from .workbench import (
    ClassificationReport,
    Sl2Family,
    catalog_modules,
    classify_sl2c,
    make_bd_model,
    make_sl2_discoloured,
    make_sl2_graded,
    make_sl2c,
    make_V_lambda,
    discolouring_sigma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
