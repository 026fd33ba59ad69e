"""The paper's contribution: key-equivalent schemes, splitness and ctm,
independence, independence-reducibility, recognition, bounded query
answering and incremental maintenance (paper, Sections 3-5)."""

from repro.core.corresponding import CorrespondingState, corresponding_state
from repro.core.ctm import (
    BlockOutcome,
    InsertMaintainer,
    MaintainerReport,
    is_ctm,
    split_blocks,
)
from repro.core.engine import BatchOutcome, Update, WeakInstanceEngine
from repro.core.partition import (
    SchemePartition,
    partition_scheme,
    scheme_fingerprint,
)
from repro.core.independence import (
    describe_violations,
    find_independence_counterexample,
    is_independent,
    satisfies_uniqueness_condition,
    uniqueness_violations,
)
from repro.core.key_equivalent import (
    KERepInstance,
    is_key_equivalent,
    key_equivalent_chase,
    key_equivalent_representative_instance,
    require_key_equivalent,
    total_projection_expression,
    total_projection_key_equivalent,
)
from repro.core.maintenance import (
    Extension,
    InsertTraceStep,
    StateIndex,
    algebraic_insert,
    ctm_insert,
    extend_tuple,
)
from repro.core.query import QueryPlan, total_projection_plan
from repro.core.reducible import (
    RecognitionResult,
    induced_scheme,
    is_independence_reducible,
    key_equivalent_partition,
    recognize_independence_reducible,
)
from repro.core.split import (
    SplitWitness,
    find_split_witness,
    is_key_split,
    is_split_free,
    scheme_closure,
    split_keys,
)

__all__ = [
    "BatchOutcome",
    "BlockOutcome",
    "CorrespondingState",
    "Update",
    "WeakInstanceEngine",
    "corresponding_state",
    "Extension",
    "InsertMaintainer",
    "InsertTraceStep",
    "KERepInstance",
    "MaintainerReport",
    "QueryPlan",
    "RecognitionResult",
    "SchemePartition",
    "SplitWitness",
    "StateIndex",
    "algebraic_insert",
    "ctm_insert",
    "describe_violations",
    "extend_tuple",
    "find_independence_counterexample",
    "find_split_witness",
    "induced_scheme",
    "is_ctm",
    "is_independence_reducible",
    "is_independent",
    "is_key_equivalent",
    "is_key_split",
    "is_split_free",
    "key_equivalent_chase",
    "partition_scheme",
    "key_equivalent_partition",
    "key_equivalent_representative_instance",
    "recognize_independence_reducible",
    "require_key_equivalent",
    "satisfies_uniqueness_condition",
    "scheme_closure",
    "scheme_fingerprint",
    "split_blocks",
    "split_keys",
    "total_projection_expression",
    "total_projection_key_equivalent",
    "total_projection_plan",
    "uniqueness_violations",
]
