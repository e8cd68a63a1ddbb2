"""The async floorplanning job service.

Four layers, each usable on its own:

* :mod:`repro.service.checkpoint` — :class:`CheckpointStore`, the
  fingerprinted completed-shard journal that lets an interrupted EFA
  search resume with a provably identical result;
* :mod:`repro.service.cache` — :class:`ResultCache`, the
  content-addressed, LRU-bounded store of finished flow results;
* :mod:`repro.service.jobs` — :class:`JobManager`, asynchronous
  submit/poll/cancel execution of flows in per-job child processes,
  with cache-hit short-circuiting, crash/restart resume, a per-child
  CPU/RSS resource sampler, and its own labelled
  :class:`~repro.obs.MetricsRegistry` behind the live
  ``GET /api/v1/metrics`` OpenMetrics scrape;
* :mod:`repro.service.server` / :mod:`repro.service.client` —
  :class:`FloorplanService` (stdlib HTTP transport with NDJSON live
  streaming) and :class:`ServiceClient`, its urllib counterpart.

The CLI front door is ``repro-25d serve`` / ``submit`` / ``job``.
"""

from .cache import DEFAULT_MAX_ENTRIES, ResultCache
from .checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
)
from .client import ServiceClient, ServiceError
from .jobs import (
    CANCELLED,
    DEFAULT_MAX_TERMINAL_JOBS,
    DONE,
    FAILED,
    Job,
    JobManager,
    QUEUED,
    RESULT_KIND,
    RESULT_SCHEMA_VERSION,
    RUNNING,
    SOLVER_CACHE_TAG,
    TERMINAL_STATES,
    cache_key,
)
from .server import (
    API_PREFIX,
    FloorplanService,
    OPENMETRICS_CONTENT_TYPE,
    ServiceHandler,
)

__all__ = [
    "API_PREFIX",
    "CANCELLED",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointStore",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_TERMINAL_JOBS",
    "DONE",
    "FAILED",
    "FloorplanService",
    "Job",
    "JobManager",
    "OPENMETRICS_CONTENT_TYPE",
    "QUEUED",
    "RESULT_KIND",
    "RESULT_SCHEMA_VERSION",
    "RUNNING",
    "ResultCache",
    "SOLVER_CACHE_TAG",
    "ServiceClient",
    "ServiceError",
    "ServiceHandler",
    "TERMINAL_STATES",
    "cache_key",
]
