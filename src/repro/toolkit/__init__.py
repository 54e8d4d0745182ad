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
    HierarchicalServer,
    KeyRoutedClient,
    attach_hierarchical_service,
)
from repro.toolkit.mutex import DistributedMutex, MutexOp
from repro.toolkit.partitioned_data import (
    PartitionedStoreClient,
    PartitionedStoreServer,
)
from repro.toolkit.replication import (
    ReplicatedDict,
    ReplicatedStateMachine,
    SMCommand,
)
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
    "HierarchicalServer",
    "KeyRoutedClient",
    "MutexOp",
    "PartitionedStoreClient",
    "PartitionedStoreServer",
    "ReplicatedDict",
    "ReplicatedStateMachine",
    "SMCommand",
    "TransactionCoordinator",
    "TransactionResource",
    "TxDecision",
    "TxPrepare",
    "attach_hierarchical_service",
    "attach_service",
]
