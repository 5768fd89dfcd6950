"""Verified convolution algebras of finite weighted groupoids.

Groupoids are finite multiplication tables; measure families,
correspondences and module bases are one kind of data, a weighted set
graded on two sides (measures.GradedSpace); and every structural
statement in the library ships with an executable check that reports
a defect and a witness instead of silently trusting the algebra.
"""

from .report import Check, Report, VerificationError, max_abs
from .fingroupoid import (
    FiniteGroupoid,
    FIXTURE_NAMES,
    arrow_weights,
    build_preset,
    counting_weights,
    cyclic_group_groupoid,
    disjoint_union,
    fixture,
    groupoid_from_dict,
    groupoid_to_dict,
    pair_groupoid,
    space_groupoid,
    transformation_groupoid,
    transitive_groupoid,
    validate_groupoid,
    validate_haar,
)
from .measures import (
    GradedSpace,
    GroupoidFamilies,
    arrow_correspondence,
    check_corr_isomorphism,
    check_family_identities,
    check_iterated_integrals,
    compare_integrals,
    compose_families,
    groupoid_families,
    haar_system,
)
from .hilbmod import (
    ModuleMap,
    check_gamma,
    check_module_map,
    creation,
    dump_module_map,
    gamma_compose,
    grade_leak,
    identity_map,
    induced_unitary,
    is_intertwiner,
    is_isometry,
    is_unitary,
    module_from_dims,
    tensor,
    tensor_map_left,
)
from .convalg import (
    check_convolution,
    convolve,
    cstar_norm,
    delta_function,
    delta_norms,
    fiber_sups,
    i_norm,
    identity_element,
    star,
)
from .sampling import (
    SplitMix64,
    haar_unitary,
    mutate_groupoid,
    random_cocycle,
    random_function,
    random_groupoid,
)
from .reps import (
    CocycleFamily,
    Representation,
    blockwise,
    check_cocycle,
    check_intertwiner,
    check_representation,
    face_transfer,
    from_cocycle,
    induce,
    invariant_support,
    regular_representation,
)
from .intdis import (
    ConvRep,
    check_integration,
    check_conv_rep,
    check_integrated_intertwiner,
    check_naturality,
    check_pair_exchange,
    conv_rep_of,
    disintegrate,
    integrate_rep,
    integration_bound,
    oracle_integrate,
    roundtrip_rep,
    upsilon,
)
from .crossed import (
    CovariantRep,
    CrossedProductAlgebra,
    InverseSemigroup,
    PartialBijection,
    all_bisections,
    bisection_from_arrows,
    bisection_semigroup,
    canonical_iso_cstar,
    check_covariant_rep,
    check_crossed_rep,
    covariant_to_groupoid_rep,
    etale_battery,
    germ_reconstruction,
    groupoid_rep_to_covariant,
    integrate_covariant,
    is_wide,
    partial_isometry_form,
    rep_of_crossed_to_covariant,
    semigroup_from_bisections,
    transformation_theorem,
)

__version__ = "0.1.0"
