"""Large-group parameters (paper §3, "Group structure").

The paper defines three quantities on a group:

* **size** — the number of member processes;
* **resiliency** — communication with (or among) the group survives
  ``resiliency - 1`` member failures; critical state is replicated at
  ``resiliency`` members;
* **fanout** — a process may communicate directly with at most ``fanout``
  group members; if ``fanout < size``, a multistage broadcast is required.

Typically ``size >= fanout >= resiliency``.  A group with
``size == fanout == resiliency`` is a *small group* (all of classical ISIS);
``size > fanout >= resiliency`` makes it a *large group*, organised as leaf
subgroups of at least ``max(resiliency, fanout)`` members under a hierarchy
of branch groups.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReorgPolicy:
    """When and why the leader reorganises the tree.

    ``mode="size"`` (the frozen default) is the original membership-count
    policy: a leaf splits only when it outgrows the split threshold and
    merges only when it shrinks below the floor, and the branch tree is
    the canonical bottom-up packing of the sorted leaf-id set.

    ``mode="load"`` makes reorganisation *load-driven*: leaf coordinators
    report a delivery-rate sample every ``report_interval`` seconds, a
    leaf whose smoothed rate exceeds the hot threshold splits even while
    comfortably sized, two *sibling* leaves that are both cold merge
    back together, and new leaves attach
    under their parent's branch so the tree deepens where the load is —
    the recursive self-organising shape sVIRGO argues for.  Size bounds
    stay on as safety rails (an oversized leaf still splits, an
    undersized one still merges).
    """

    mode: str = "size"  # "size" | "load"
    # EWMA smoothing for the per-leaf rate: rate' = alpha*sample +
    # (1-alpha)*rate, sampled once per report interval.
    ewma_alpha: float = 0.4
    # A leaf is *hot* when its smoothed delivery rate (deliveries per
    # second, leaf-wide) crosses this threshold.
    hot_delivery_rate: float = 30.0
    # A leaf is *cold* below this; two cold siblings merge.
    cold_delivery_rate: float = 2.0
    # Leaf coordinators report load this often (load mode only — in size
    # mode reports ride on view changes exactly as before).
    report_interval: float = 0.5
    # Minimum sim-seconds between reorganisations touching one leaf:
    # damps split/merge flapping while an EWMA settles.
    cooldown: float = 3.0
    # Hard cap on tree depth growth (root counts as one level).
    max_depth: int = 8

    def __post_init__(self) -> None:
        if self.mode not in ("size", "load"):
            raise ValueError("mode must be 'size' or 'load'")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.hot_delivery_rate <= self.cold_delivery_rate:
            raise ValueError("hot_delivery_rate must exceed cold_delivery_rate")
        if self.report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if self.cooldown < 0.0:
            raise ValueError("cooldown must be nonnegative")
        if self.max_depth < 2:
            raise ValueError("max_depth must allow root + leaves")

    @property
    def load_driven(self) -> bool:
        return self.mode == "load"

    def describe(self) -> str:
        if not self.load_driven:
            return "reorg=size"
        return (
            f"reorg=load hot={self.hot_delivery_rate}d "
            f"cold={self.cold_delivery_rate}d "
            f"report={self.report_interval}s cooldown={self.cooldown}s"
        )


@dataclass(frozen=True)
class LargeGroupParams:
    """Tuning knobs for one large group."""

    resiliency: int = 3
    fanout: int = 8
    # A leaf splits when it grows beyond split_factor * min_leaf_size and
    # merges into a sibling when it falls below min_leaf_size.  The paper
    # fixes min_leaf_size = max(resiliency, fanout); we keep that as the
    # default but let experiments (ablation A1) vary the bound
    # independently via min_leaf_size.
    split_factor: float = 2.0
    min_leaf_size: int = 0  # 0 means "use max(resiliency, fanout)"
    leader_size: int = 0  # 0 means "use resiliency"
    # Split/merge decision policy; the default reproduces the size-only
    # behaviour (and its frozen fingerprints) byte-for-byte.
    reorg: ReorgPolicy = ReorgPolicy()

    def __post_init__(self) -> None:
        if self.resiliency < 1:
            raise ValueError("resiliency must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.split_factor <= 1.0:
            raise ValueError("split_factor must exceed 1")
        if self.min_leaf_size < 0 or self.leader_size < 0:
            raise ValueError("sizes must be nonnegative")

    @property
    def leaf_min(self) -> int:
        """Minimum leaf size: max(resiliency, fanout) per the paper, unless
        overridden for ablation."""
        if self.min_leaf_size:
            return self.min_leaf_size
        return max(self.resiliency, self.fanout)

    @property
    def leaf_split_threshold(self) -> int:
        """A leaf larger than this must split."""
        return int(self.leaf_min * self.split_factor)

    @property
    def leader_group_size(self) -> int:
        """Members of the resilient group-leader subgroup."""
        return self.leader_size if self.leader_size else self.resiliency

    def describe(self) -> str:
        base = (
            f"resiliency={self.resiliency} fanout={self.fanout} "
            f"leaf=[{self.leaf_min}..{self.leaf_split_threshold}] "
            f"leader={self.leader_group_size}"
        )
        if self.reorg.load_driven:
            base += f" {self.reorg.describe()}"
        return base
