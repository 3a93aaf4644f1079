"""Service-model layer: records, accuracy algebra and query semantics.

Pure definitions of the paper's Section-3 model, shared by the
hierarchical service, the single-server data store and the baselines.
"""

from repro.model.accuracy import AccuracyModel, NegotiationError
from repro.model.queries import (
    InvalidQueryError,
    NearestNeighborQuery,
    NearestNeighborResult,
    ObjectEntry,
    RangeQuery,
    candidate_bounds,
    effective_margin,
    nearest_neighbor,
    overlap,
    overlap_reach,
    qualifies_for_range,
    qualifying_indexes,
    range_query,
)
from repro.model.records import (
    InvalidRecordError,
    LocationDescriptor,
    RegistrationInfo,
    SightingColumns,
    SightingRecord,
)

__all__ = [
    "AccuracyModel",
    "InvalidQueryError",
    "InvalidRecordError",
    "LocationDescriptor",
    "NearestNeighborQuery",
    "NearestNeighborResult",
    "NegotiationError",
    "ObjectEntry",
    "RangeQuery",
    "RegistrationInfo",
    "SightingColumns",
    "SightingRecord",
    "candidate_bounds",
    "effective_margin",
    "nearest_neighbor",
    "overlap",
    "overlap_reach",
    "qualifies_for_range",
    "qualifying_indexes",
    "range_query",
]
