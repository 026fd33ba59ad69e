"""repro — a reproduction of Chan & Hernández, "Independence-reducible
Database Schemes" (PODS 1988 / Waterloo CS-88-18).

The library implements the weak-instance model substrate (functional
dependencies, tableaux and the chase, hypergraph acyclicity, database
states) and the paper's contribution on top of it: key-equivalent
schemes, splitness and constant-time maintainability, independence, the
independence-reducible class, its polynomial recognition algorithm,
bounded query answering and incremental constraint enforcement.

Quickstart::

    from repro import DatabaseScheme, DatabaseState, analyze_scheme

    university = DatabaseScheme.from_spec({
        "R1": ("HRC", ["HR"]),
        "R2": ("HTR", ["HT", "HR"]),
        "R3": ("HTC", ["HT"]),
        "R4": ("CSG", ["CS"]),
        "R5": ("HSR", ["HS"]),
    })
    print(analyze_scheme(university).describe())
"""

from repro.analysis import SchemeReport, analyze_scheme
from repro.core import (
    InsertMaintainer,
    QueryPlan,
    RecognitionResult,
    WeakInstanceEngine,
    corresponding_state,
    algebraic_insert,
    ctm_insert,
    is_ctm,
    is_independence_reducible,
    is_independent,
    is_key_equivalent,
    is_split_free,
    key_equivalent_partition,
    key_equivalent_representative_instance,
    recognize_independence_reducible,
    split_keys,
    total_projection_plan,
)
from repro.fd import FD, FDSet, candidate_keys, fd, minimal_cover, parse_fds
from repro.fd.armstrong import derive, explain_key, verify_derivation
from repro.foundations import (
    InconsistentStateError,
    NotApplicableError,
    ReproError,
    SchemaError,
    StateError,
)
from repro.schema import (
    DatabaseScheme,
    RelationScheme,
    augment,
    normalize_keys,
    reduce_scheme,
    relation,
    scheme,
)
from repro.schema.synthesis import synthesize_3nf
from repro.service import (
    DurableStore,
    MetricsRegistry,
    RecoveryReport,
    WriteAheadLog,
)
from repro.state import (
    DatabaseState,
    Relation,
    is_consistent,
    is_locally_consistent,
    maintain_by_chase,
    representative_instance,
    state_of,
    total_projection,
    tuples_from_rows,
)

__version__ = "1.0.0"

__all__ = [
    "DatabaseScheme",
    "DatabaseState",
    "DurableStore",
    "MetricsRegistry",
    "RecoveryReport",
    "WriteAheadLog",
    "FD",
    "FDSet",
    "InconsistentStateError",
    "InsertMaintainer",
    "NotApplicableError",
    "QueryPlan",
    "RecognitionResult",
    "Relation",
    "RelationScheme",
    "ReproError",
    "SchemaError",
    "SchemeReport",
    "StateError",
    "WeakInstanceEngine",
    "algebraic_insert",
    "corresponding_state",
    "derive",
    "explain_key",
    "synthesize_3nf",
    "verify_derivation",
    "analyze_scheme",
    "augment",
    "candidate_keys",
    "ctm_insert",
    "fd",
    "is_consistent",
    "is_ctm",
    "is_independence_reducible",
    "is_independent",
    "is_key_equivalent",
    "is_locally_consistent",
    "is_split_free",
    "key_equivalent_partition",
    "key_equivalent_representative_instance",
    "maintain_by_chase",
    "minimal_cover",
    "normalize_keys",
    "parse_fds",
    "recognize_independence_reducible",
    "reduce_scheme",
    "relation",
    "representative_instance",
    "scheme",
    "split_keys",
    "state_of",
    "total_projection",
    "total_projection_plan",
    "tuples_from_rows",
]
