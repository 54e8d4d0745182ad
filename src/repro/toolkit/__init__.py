"""The ISIS-style toolkit: ready-made distributed-programming tools
(paper §2/§4), on both flat and hierarchical groups."""

from repro.toolkit.coordinator_cohort import (
    CCRead,
    CCReply,
    CCRequest,
    CCResultNote,
    CoordinatorCohortClient,
    CoordinatorCohortServer,
    GetMembers,
    attach_service,
)
from repro.toolkit.hierarchical_service import (
    HierarchicalClient,
    HierarchicalServer,
    attach_hierarchical_service,
)
from repro.toolkit.mutex import DistributedMutex, MutexOp
from repro.toolkit.news import News, NewsPost
from repro.toolkit.parallel import ParallelExecutor, partition
from repro.toolkit.partitioned_data import (
    PartitionedStoreClient,
    PartitionedStoreServer,
)
from repro.toolkit.replication import (
    ReplicatedCounter,
    ReplicatedDict,
    ReplicatedStateMachine,
    SMCommand,
)
from repro.toolkit.state_transfer import StateTransferHub
from repro.toolkit.transactions import (
    TransactionCoordinator,
    TransactionResource,
    TxDecision,
    TxPrepare,
)

__all__ = [
    "CCRead",
    "CCReply",
    "CCRequest",
    "CCResultNote",
    "CoordinatorCohortClient",
    "CoordinatorCohortServer",
    "DistributedMutex",
    "GetMembers",
    "HierarchicalClient",
    "HierarchicalServer",
    "MutexOp",
    "News",
    "NewsPost",
    "ParallelExecutor",
    "PartitionedStoreClient",
    "PartitionedStoreServer",
    "ReplicatedCounter",
    "ReplicatedDict",
    "ReplicatedStateMachine",
    "SMCommand",
    "StateTransferHub",
    "TransactionCoordinator",
    "TransactionResource",
    "TxDecision",
    "TxPrepare",
    "attach_hierarchical_service",
    "attach_service",
    "partition",
]
