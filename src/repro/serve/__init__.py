"""repro.serve — checkpointing + tape-free inference + prediction service.

The deployment story of the reproduction (DESIGN §11): train an estimator,
:func:`save_catehgn` it to a versioned ``.npz`` checkpoint, freeze it into
an :class:`InferenceEngine` (one tape-free forward per graph snapshot),
and expose predictions over stdlib HTTP via ``python -m repro.serve``
(the asyncio server, :class:`AsyncPredictionServer`).
"""

from ..wire import ServiceError, ServiceLimits
from .aio import (
    AdmissionFull,
    AdmissionQueue,
    AsyncPredictionServer,
    BackgroundAsyncServer,
    BatchSettings,
    BatchingMetrics,
    DynamicBatcher,
    serve_forever_aio,
)
from .breaker import CircuitBreaker
from .cache import LRUCache
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    RestoredCATEHGN,
    load_checkpoint,
    load_gnn_baseline,
    restore_catehgn,
    save_catehgn,
    save_checkpoint,
    save_gnn_baseline,
)
from .degrade import ReloadRejected, ServingRuntime
from .engine import InferenceEngine
from .metrics import ServiceMetrics
from .prior import PriorHead

__all__ = [
    "AdmissionFull",
    "AdmissionQueue",
    "AsyncPredictionServer",
    "BackgroundAsyncServer",
    "BatchSettings",
    "BatchingMetrics",
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CircuitBreaker",
    "DynamicBatcher",
    "InferenceEngine",
    "LRUCache",
    "PriorHead",
    "ReloadRejected",
    "RestoredCATEHGN",
    "ServiceError",
    "ServiceLimits",
    "ServiceMetrics",
    "ServingRuntime",
    "load_checkpoint",
    "load_gnn_baseline",
    "restore_catehgn",
    "save_catehgn",
    "save_checkpoint",
    "save_gnn_baseline",
    "serve_forever_aio",
]
