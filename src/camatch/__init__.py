"""Pareto-optimal many-to-many matching with tied preferences.

Public surface: instance modelling and text formats, matchings with
lexicographic set comparison and improving coalitions, the envy-graph
Pareto-optimality verifier, the staged-flow serial dictatorship mechanism,
and brute-force oracles for desk-scale verification.
"""

from .envy import (
    CycleWitness,
    EnvyGraph,
    ParetoCheck,
    Pseudocoalition,
    build_envy_graph,
    extract_improving_coalition,
    find_negative_cycle,
    is_pareto_optimal,
    pseudocoalition_error,
    reduce_pseudocoalition,
)
from .errors import (
    CamatchError,
    CoalitionError,
    FeasibilityError,
    InstanceSemanticError,
    InstanceSyntaxError,
    NotParetoOptimalError,
    OrderingError,
    SearchLimitExceeded,
)
from .gsdt import (
    GsdtResult,
    GuidedToward,
    derive_ordering,
    find_augmenting_path,
    render_trace,
    run_gsdt,
)
from .instance import (
    Instance,
    check_ordering,
    format_preference_list,
    generate_random_instance,
    parse_instance,
    parse_matching_pairs,
    parse_ordering,
    serialize_instance,
    serialize_matching_pairs,
    serialize_ordering,
    validate_ordering,
)
from .matching import (
    CoalitionKind,
    ImprovingCoalition,
    Matching,
    SetRelation,
    characteristic_vector,
    coalition_error,
    compare_sets,
    is_feasible,
    pareto_dominates,
    satisfy_coalition,
)
from .oracle import (
    MisreportFinding,
    MisreportSearch,
    MisreportStatus,
    PomCatalog,
    ReachabilityReport,
    check_reachability,
    enumerate_feasible_matchings,
    enumerate_poms,
    find_beneficial_misreport,
    is_pom_bruteforce,
    verify_impossibility_scenario,
)

__version__ = "0.1.0"
