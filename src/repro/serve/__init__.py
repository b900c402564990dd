"""repro.serve — multi-session streaming over a shared bottleneck.

The paper evaluates the adaptive error-spreading protocol one session
at a time; this package is the service layer a production server needs
on top of it: ``K`` concurrent :class:`~repro.core.protocol.ProtocolSession`
engines on one discrete-event loop, a bottleneck of fixed capacity
split by a pluggable bandwidth scheduler (fair share or strict
priority), admission control that defends every admitted viewer's
critical layers, and graceful load shedding that drops B-layers first
and anchors last — the layered drop order of PROTOCOL.md step 2 made
explicit.

Quickstart::

    from repro.serve import LoadSpec, generate_requests, serve_sessions

    requests = generate_requests(LoadSpec(sessions=4, seed=1))
    result = serve_sessions(requests, capacity_bps=2_400_000.0)
    print(result.describe())

With one session and a capacity equal to its configured bandwidth, the
service reproduces :func:`repro.core.protocol.run_session` bit for bit
(the differential parity suite in ``tests/serve`` pins this on both
acceleration backends).
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    estimate_demand,
)
from repro.serve.fastpath import FastStreamingService, serve_sessions_fast
from repro.serve.hierarchy import (
    HierarchyPlan,
    HierarchyResult,
    ShardTask,
    plan_hierarchy,
    resolve_auto_shards,
    run_hierarchy,
    shard_specs,
)
from repro.serve.bandwidth import (
    FairShareScheduler,
    PriorityScheduler,
    SessionDemand,
    make_scheduler,
)
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import (
    ServedSession,
    ServiceResult,
    SessionOutcome,
    SessionRequest,
    StreamingService,
    build_service_manifest,
    serve_sessions,
)
from repro.serve.shedding import LayeredShedPolicy

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FairShareScheduler",
    "FastStreamingService",
    "HierarchyPlan",
    "HierarchyResult",
    "LayeredShedPolicy",
    "LoadSpec",
    "PriorityScheduler",
    "ServedSession",
    "ServiceResult",
    "SessionDemand",
    "SessionOutcome",
    "SessionRequest",
    "ShardTask",
    "StreamingService",
    "build_service_manifest",
    "estimate_demand",
    "generate_requests",
    "make_scheduler",
    "plan_hierarchy",
    "resolve_auto_shards",
    "run_hierarchy",
    "serve_sessions",
    "serve_sessions_fast",
    "shard_specs",
]
