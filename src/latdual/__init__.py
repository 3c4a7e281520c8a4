"""Finite lattices, their dual reflexive digraphs, and the way back.

The dual of a lattice has the maximal disjoint filter-ideal pairs as
vertices; a reflexive digraph is sent back to the lattice of its maximal
arc-preserving partial {0,1}-valued maps. This package provides both
directions, deciders for the lattice laws and digraph axioms that the
duality exchanges, exhaustive small-case enumeration, and a verification
harness that checks every statement over the full catalogs.
"""

from .convexity import (
    ClosureSystem,
    cld_lattice,
    closure_from_json,
    closure_of,
    closure_to_json,
    is_zero_closure,
    lattice_to_convex_geometry,
    satisfies_aep,
)
from .digraph import (
    G0,
    G1,
    G2,
    Digraph,
    PropertyReport,
    check_djsd,
    check_dmsd,
    check_dsd,
    check_fis,
    check_lti,
    check_tirs,
    check_uti,
    check_wt0,
    check_wt1,
    digraph_canonical_key,
    digraph_from_json,
    digraph_isomorphic,
    digraph_to_dot,
    digraph_to_json,
    find_induced,
    in_set,
    is_poset,
    is_transitive,
    out_set,
)
from .duality import (
    PartialTwoMap,
    dual_digraph,
    maximal_extensions,
    mdfips,
    mdfips_bruteforce,
    mpe_enumerate,
    mpe_lattice,
    roundtrip_digraph,
    roundtrip_lattice,
    t_set,
)
from .enumeration import (
    LatticeCatalog,
    enumerate_lattices,
    enumerate_tirs_digraphs,
)
from .errors import (
    BoundTooLarge,
    EmptyInterval,
    LatdualError,
    NoLowerCovers,
    NotALattice,
    NotAPartialOrder,
    NotDisjoint,
    NotMeetDistributive,
    NotReflexive,
    UnknownProperty,
)
from .fixtures import fixture, fixture_names
from .lattice import (
    FiniteLattice,
    canonical_key,
    canonicalize,
    find_n5_sublattices,
    from_covers,
    interval,
    join_irreducibles,
    lattice_from_json,
    lattice_isomorphic,
    lattice_to_dot,
    lattice_to_json,
    meet_irreducibles,
    mu,
    order_dual,
    relabel,
)
from .properties import (
    check_digraph_property,
    check_lattice_property,
    is_distributive,
    is_jm_lsm,
    is_jm_usm,
    is_jsd,
    is_lsm,
    is_meet_distributive,
    is_modular,
    is_msd,
    is_sd,
    is_usm,
    is_wjsd,
    property_names,
    satisfies_labc,
    satisfies_uabc,
)
from .theorems import (
    REGISTRY,
    REGISTRY_IDS,
    TheoremCheck,
    TheoremRecord,
    render_report,
    report_to_json,
    search_counterexamples,
    verify_theorems,
)

__version__ = "0.1.0"
