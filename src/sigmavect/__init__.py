"""Exact arithmetic for series with bounded support.

The package is organized bottom-up:

- scalars: exact coefficient fields (rationals, GF(p))
- universe: index universes (ordered monoids, monomial groups, pairs)
- sets: finitely described subsets and decidable intersections
- gridsolve: lattice walks and bounded decompositions inside grids
- bornology: boundedness ideals, duals, products, hom bornologies
- series: series spaces, pairings, summable families
- hahn: convolution, geometric summation, inversion, truncation
- strmap: sum-preserving linear maps, duals, tensor products
- closure: constructive dual bases and one-step span closure
- slalg: monoid algebras as their series spaces, derivations, module actions
- expr/cli: the expression language and the `sigma` command
"""

from .scalars import GF, QQ, Field, field_from_spec
from .universe import (
    POINT,
    FiniteUniverse,
    Integers,
    MonomialUniverse,
    Naturals,
    PairUniverse,
    Rationals,
    TupleUniverse,
)
from .sets import (
    DescribedSet,
    SetError,
    atom_intersection,
    described_intersection,
)
from .bornology import (
    Bornology,
    Verdict,
    agree_on_battery,
    all_subsets,
    finite_subsets,
    generate,
    hom_bornology,
    order_type_omega,
    perp,
    product_bornology,
    reverse_well_ordered,
    well_ordered,
)
from .series import (
    FiniteSeries,
    LazySeries,
    PairingUndecided,
    Series,
    SeriesError,
    Space,
    SummableFamily,
    add,
    check_summable,
    family_sum,
    finite_family,
    linear_combination,
    monomial_expansion,
    pairing,
    scale,
    sub,
)
from .hahn import (
    HahnError,
    cauchy_product,
    invert_unit,
    leading_term,
    monomial_shift,
    neumann_sum,
    product_many,
    truncate,
)
from .strmap import (
    MapError,
    StrongLinearMap,
    check_sigma_preserving,
    compose,
    extend_biperp,
    functional_to_series,
    identity_map,
    map_family,
    matrix_map,
    point_space,
    pure_tensor,
    series_to_functional,
    tensor_map,
)
from .closure import (
    ConstructedBasis,
    FunctionalFamily,
    IdempotenceFailure,
    PatternGenerator,
    SigmaSpanOracle,
    VectorGenerator,
    dense_sigma_closed_example,
    dual_basis_construction,
    idempotence_check,
    kernel_basis,
    rank,
    rref,
    solve_combination,
)
from .slalg import (
    AlgebraError,
    BornologicalMonoid,
    Derivation,
    ModuleAction,
    euler_derivation,
    extend_derivation,
    module_action,
    monoid_algebra,
)
from .expr import Diagnostic, Env, EvalError, Evaluator, evaluate, parse, print_expr, render
from .suites import SUITES, run_suite

__version__ = "0.1.0"
