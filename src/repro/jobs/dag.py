"""Job execution-plan graphs (SCOPE/Dryad style).

A job is a DAG of *stages*; each stage holds one or more parallel *tasks*
(the paper's vertices).  Edges carry one of two communication patterns:

* ``ONE_TO_ONE`` — pointwise dataflow (pipelines, range-partitioned merges).
  When task counts differ across the edge, downstream task ``i`` depends on
  the contiguous range of upstream tasks whose key-range overlaps its own.
* ``ALL_TO_ALL`` — full shuffle.  Every downstream task needs every upstream
  task, so the edge is a *barrier*: the downstream stage cannot start until
  the upstream stage fully completes (paper §2.1).

The :class:`DependencyTracker` gives both the cluster runtime and Jockey's
offline simulator an O(E)-memory, O(1)-amortized readiness test even for
all-to-all edges between large stages.  What it needs to know about the
graph is compiled once per graph (:class:`_ReadinessPlan`); a tracker is
only the mutable counters over that plan.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple


class GraphError(ValueError):
    """Raised for malformed job graphs."""


class EdgeType(enum.Enum):
    """Communication pattern between two connected stages."""

    ONE_TO_ONE = "one_to_one"
    ALL_TO_ALL = "all_to_all"


@dataclass(frozen=True)
class Stage:
    """One operator of the execution plan (map, reduce, join, aggregate...)."""

    name: str
    num_tasks: int

    def __post_init__(self):
        if not self.name:
            raise GraphError("stage name must be non-empty")
        if self.num_tasks < 1:
            raise GraphError(f"stage {self.name!r} needs >= 1 task, got {self.num_tasks}")


@dataclass(frozen=True)
class Edge:
    """A directed dataflow edge between stages."""

    src: str
    dst: str
    kind: EdgeType = EdgeType.ONE_TO_ONE


class JobGraph:
    """An immutable, validated stage DAG.

    Stages keep insertion order; ``topological_order`` respects dependencies
    and is deterministic.
    """

    def __init__(self, name: str, stages: Sequence[Stage], edges: Sequence[Edge]):
        if not name:
            raise GraphError("job name must be non-empty")
        if not stages:
            raise GraphError("job needs at least one stage")
        self.name = name
        self._stages: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise GraphError(f"duplicate stage {stage.name!r}")
            self._stages[stage.name] = stage
        self._stage_tuple: Tuple[Stage, ...] = tuple(self._stages.values())
        self._edges: Tuple[Edge, ...] = tuple(edges)
        in_edges: Dict[str, List[Edge]] = {s: [] for s in self._stages}
        out_edges: Dict[str, List[Edge]] = {s: [] for s in self._stages}
        seen_pairs: Set[Tuple[str, str]] = set()
        for edge in self._edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self._stages:
                    raise GraphError(f"edge references unknown stage {endpoint!r}")
            if edge.src == edge.dst:
                raise GraphError(f"self-loop on stage {edge.src!r}")
            if (edge.src, edge.dst) in seen_pairs:
                raise GraphError(f"duplicate edge {edge.src!r} -> {edge.dst!r}")
            seen_pairs.add((edge.src, edge.dst))
            in_edges[edge.dst].append(edge)
            out_edges[edge.src].append(edge)
        self._in_edges: Dict[str, Tuple[Edge, ...]] = {
            s: tuple(es) for s, es in in_edges.items()
        }
        self._out_edges: Dict[str, Tuple[Edge, ...]] = {
            s: tuple(es) for s, es in out_edges.items()
        }
        self._topo = self._compute_topological_order()

    def __getstate__(self):
        # The readiness plan is derived data: rebuilt on first use wherever
        # the graph lands, never shipped to worker processes.
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    @functools.cached_property
    def _plan(self) -> "_ReadinessPlan":
        """The graph's compiled readiness structure (built on first use)."""
        return _ReadinessPlan(self)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def stages(self) -> Tuple[Stage, ...]:
        return self._stage_tuple

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return self._edges

    def stage(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise GraphError(f"no stage named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def in_edges(self, name: str) -> Tuple[Edge, ...]:
        return self._in_edges[name]

    def out_edges(self, name: str) -> Tuple[Edge, ...]:
        return self._out_edges[name]

    def parents(self, name: str) -> Tuple[str, ...]:
        return tuple(e.src for e in self._in_edges[name])

    def children(self, name: str) -> Tuple[str, ...]:
        return tuple(e.dst for e in self._out_edges[name])

    def roots(self) -> Tuple[str, ...]:
        return tuple(s for s in self._stages if not self._in_edges[s])

    def leaves(self) -> Tuple[str, ...]:
        return tuple(s for s in self._stages if not self._out_edges[s])

    def topological_order(self) -> Tuple[str, ...]:
        return self._topo

    @property
    def num_stages(self) -> int:
        return len(self._stages)

    @property
    def num_vertices(self) -> int:
        """Total task count across stages (the paper's 'number of vertices')."""
        return sum(s.num_tasks for s in self._stages.values())

    def barrier_stages(self) -> Tuple[str, ...]:
        """Stages gated by a full shuffle on at least one input."""
        return tuple(
            s
            for s in self._stages
            if any(e.kind is EdgeType.ALL_TO_ALL for e in self._in_edges[s])
        )

    @property
    def num_barrier_stages(self) -> int:
        return len(self.barrier_stages())

    def _compute_topological_order(self) -> Tuple[str, ...]:
        indegree = {s: len(self._in_edges[s]) for s in self._stages}
        frontier = [s for s in self._stages if indegree[s] == 0]
        order: List[str] = []
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for edge in self._out_edges[node]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    frontier.append(edge.dst)
        if len(order) != len(self._stages):
            cyclic = sorted(s for s, d in indegree.items() if d > 0)
            raise GraphError(f"graph has a cycle involving stages {cyclic}")
        return tuple(order)

    # ------------------------------------------------------------------
    # Critical-path analytics (used by Amdahl's-law model and feasibility)
    # ------------------------------------------------------------------

    def critical_path(self, stage_task_time: Dict[str, float]) -> float:
        """Length of the longest dependency chain, charging each stage the
        given per-task time (the job's runtime with infinite parallelism)."""
        longest = self.longest_path_from(stage_task_time)
        return max(longest.values()) if longest else 0.0

    def longest_path_from(self, stage_task_time: Dict[str, float]) -> Dict[str, float]:
        """For each stage ``s``: the paper's ``L_s + l_s`` — the longest path
        from the *start* of ``s`` to the end of the job, inclusive of ``s``."""
        result: Dict[str, float] = {}
        for name in reversed(self._topo):
            own = float(stage_task_time.get(name, 0.0))
            below = max(
                (result[e.dst] for e in self._out_edges[name]), default=0.0
            )
            result[name] = own + below
        return result

    def render_ascii(self) -> str:
        """A compact textual rendering of the DAG (our stand-in for Fig. 3)."""
        lines = [f"job {self.name}: {self.num_stages} stages, "
                 f"{self.num_vertices} vertices, {self.num_barrier_stages} barriers"]
        for name in self._topo:
            stage = self._stages[name]
            shuffled = any(
                e.kind is EdgeType.ALL_TO_ALL for e in self._in_edges[name]
            )
            marker = "▲" if shuffled else "●"
            parents = ",".join(self.parents(name)) or "-"
            lines.append(
                f"  {marker} {name:<16} tasks={stage.num_tasks:<6} <- {parents}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobGraph({self.name!r}, stages={self.num_stages}, "
            f"vertices={self.num_vertices})"
        )


def one_to_one_range(i: int, n_dst: int, n_src: int) -> Tuple[int, int]:
    """Inclusive range ``[lo, hi]`` of upstream tasks feeding downstream task
    ``i`` across a ONE_TO_ONE edge with unequal task counts.

    Tasks are treated as covering equal key-ranges; downstream task ``i``
    depends on every upstream task whose range overlaps its own.
    """
    if not 0 <= i < n_dst:
        raise GraphError(f"task index {i} out of range for {n_dst} tasks")
    lo = (i * n_src) // n_dst
    hi = ((i + 1) * n_src - 1) // n_dst
    return lo, min(hi, n_src - 1)


class _ReadinessPlan:
    """Everything :class:`DependencyTracker` needs to know about a graph,
    derived once (the graph is immutable) and shared by every tracker over
    it.  Stages are addressed by their position in ``graph.stages``.
    """

    __slots__ = ("index", "names", "sizes", "total", "roots", "barriers",
                 "pointwise", "out_edges")

    def __init__(self, graph: JobGraph):
        stages = graph.stages
        self.index: Dict[str, int] = {s.name: i for i, s in enumerate(stages)}
        self.names: Tuple[str, ...] = tuple(s.name for s in stages)
        self.sizes: Tuple[int, ...] = tuple(s.num_tasks for s in stages)
        self.total: int = graph.num_vertices
        #: In-edge-free stages in topological order: the tasks ready at start.
        self.roots: Tuple[int, ...] = tuple(
            self.index[name]
            for name in graph.topological_order()
            if not graph.in_edges(name)
        )
        #: Per stage: how many ALL_TO_ALL inputs gate it.
        barriers: List[int] = []
        #: Per stage, per task: how many upstream tasks feed it pointwise.
        pointwise: List[Tuple[int, ...]] = []
        for stage in stages:
            n_dst = stage.num_tasks
            counts = [0] * n_dst
            gates = 0
            for edge in graph.in_edges(stage.name):
                if edge.kind is EdgeType.ALL_TO_ALL:
                    gates += 1
                    continue
                n_src = graph.stage(edge.src).num_tasks
                for i in range(n_dst):
                    lo, hi = one_to_one_range(i, n_dst, n_src)
                    counts[i] += hi - lo + 1
            barriers.append(gates)
            pointwise.append(tuple(counts))
        self.barriers: Tuple[int, ...] = tuple(barriers)
        self.pointwise: Tuple[Tuple[int, ...], ...] = tuple(pointwise)
        #: Per stage: ``(dst index, dst name, is_barrier, n_dst)`` per out-edge.
        self.out_edges = tuple(
            tuple(
                (
                    self.index[e.dst],
                    e.dst,
                    e.kind is EdgeType.ALL_TO_ALL,
                    graph.stage(e.dst).num_tasks,
                )
                for e in graph.out_edges(name)
            )
            for name in self.names
        )


class DependencyTracker:
    """Incremental task-readiness tracking over a :class:`JobGraph`.

    Usage: construct, drain :meth:`initially_ready`, then feed each task
    completion to :meth:`complete` and schedule the task ids it returns.
    Task ids are ``(stage_name, index)`` tuples.

    The structure lives in the graph's :class:`_ReadinessPlan`; a tracker
    holds only counters, so construction and ``reset`` are list copies —
    which matters because Jockey's offline simulator replays the same graph
    thousands of times while building C(p, a).
    """

    __slots__ = ("graph", "_plan", "_barriers", "_pointwise", "_completed",
                 "_remaining", "_roots_pending")

    def __init__(self, graph: JobGraph):
        self.graph = graph
        self._plan = graph._plan
        self.reset()

    def reset(self) -> None:
        """Restore initial readiness state (all tasks un-run) without
        re-deriving structure."""
        plan = self._plan
        self._barriers = list(plan.barriers)
        self._pointwise = [list(counts) for counts in plan.pointwise]
        self._completed = [0] * len(plan.sizes)
        self._remaining = plan.total
        self._roots_pending = True

    def initially_ready(self) -> List[Tuple[str, int]]:
        """Tasks with no unmet dependencies at job start (handed out once)."""
        if not self._roots_pending:
            return []
        self._roots_pending = False
        plan = self._plan
        return [
            (plan.names[s], i) for s in plan.roots for i in range(plan.sizes[s])
        ]

    def complete(self, stage: str, index: int) -> List[Tuple[str, int]]:
        """Record completion of one task; return newly-ready tasks."""
        plan = self._plan
        try:
            s = plan.index[stage]
        except KeyError:
            raise GraphError(f"no stage named {stage!r}") from None
        n_src = plan.sizes[s]
        if not 0 <= index < n_src:
            raise GraphError(f"task index {index} out of range for stage {stage!r}")
        done = self._completed[s] + 1
        if done > n_src:
            raise GraphError(f"stage {stage!r} completed more tasks than it has")
        self._completed[s] = done
        self._remaining -= 1
        newly_ready: List[Tuple[str, int]] = []
        for d, dst, is_barrier, n_dst in plan.out_edges[s]:
            if is_barrier:
                if done == n_src:
                    barriers = self._barriers
                    barriers[d] -= 1
                    if barriers[d] == 0:
                        for j, remaining in enumerate(self._pointwise[d]):
                            if remaining == 0:
                                newly_ready.append((dst, j))
            else:
                # Downstream tasks whose input range includes `index`.
                # (index < n_src, so the range's upper end is < n_dst.)
                counts = self._pointwise[d]
                open_gate = self._barriers[d] == 0
                for j in range(
                    (index * n_dst) // n_src, ((index + 1) * n_dst - 1) // n_src + 1
                ):
                    left = counts[j] = counts[j] - 1
                    if left == 0 and open_gate:
                        newly_ready.append((dst, j))
        return newly_ready

    def stage_fractions(self) -> Dict[str, float]:
        """Fraction of each stage's tasks completed, in stage order."""
        plan = self._plan
        return {
            name: done / size
            for name, done, size in zip(plan.names, self._completed, plan.sizes)
        }

    def completed_in_stage(self, stage: str) -> int:
        return self._completed[self._plan.index[stage]]

    def is_stage_complete(self, stage: str) -> bool:
        s = self._plan.index[stage]
        return self._completed[s] == self._plan.sizes[s]

    def all_complete(self) -> bool:
        return self._remaining == 0


__all__ = [
    "DependencyTracker",
    "Edge",
    "EdgeType",
    "GraphError",
    "JobGraph",
    "Stage",
    "one_to_one_range",
]
