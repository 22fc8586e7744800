"""Dashboard serving layer: a robust concurrent gateway over Tabula.

The paper's middleware answers one query at a time, in process. This
package is the production rim around it — admission control with load
shedding, per-request deadlines, hot cube reload — exposed as a Python API
(:class:`ServingGateway`), a stdlib HTTP endpoint
(:func:`~repro.serving.http.serve_http`) and the ``repro serve`` CLI.

On top of the single-process gateway sits the fault-tolerant *sharded
tier* (``repro serve --shards N``): :class:`Placement` consistent-hashes
cube cells across N supervised shard-worker processes
(:class:`ShardSupervisor` handles death/hang detection, exponential
backoff restarts and crash-loop parking), and :class:`ShardRouter`
fronts them with per-shard circuit breakers, retries, replica
failover and a final degradation rung — the locally replicated global
sample — so a worker kill yields ``DOWNGRADED`` answers, never a 500.
"""

from repro.resilience.deadline import Deadline
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.serving.gateway import (
    CubeSnapshot,
    ReloadResult,
    ServingConfig,
    ServingGateway,
    ServingOutcome,
    ServingResponse,
)
from repro.serving.placement import Placement, shard_transform
from repro.serving.router import RouterConfig, ShardRouter
from repro.serving.supervisor import (
    ShardSupervisor,
    SupervisorConfig,
    WorkerState,
    default_worker_factory,
)

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CubeSnapshot",
    "Deadline",
    "Placement",
    "ReloadResult",
    "RouterConfig",
    "ServingConfig",
    "ServingGateway",
    "ServingOutcome",
    "ServingResponse",
    "ShardRouter",
    "ShardSupervisor",
    "SupervisorConfig",
    "WorkerState",
    "default_worker_factory",
    "shard_transform",
]
