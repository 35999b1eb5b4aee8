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
offline simulator an O(1)-amortized readiness test in O(|V| + pointwise
fan-out) memory — an all-to-all edge between large stages costs one count
per downstream task, never a record per pair.  What it needs to know about
the graph is compiled once per graph (:class:`_ReadinessPlan`); a tracker
is only the mutable counters over that plan.
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
    # Critical-path analytics (used by Amdahl's-law model and the
    # critical-path indicator)
    # ------------------------------------------------------------------

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
    it.

    Stages are addressed by their position in ``graph.stages`` and tasks by
    a global id, ``offsets[stage] + index``.  The task-level view costs
    O(|V| + pointwise fan-out) memory; an all-to-all edge adds one to each
    downstream task's input count and nothing else.
    """

    __slots__ = ("index", "names", "sizes", "offsets", "total", "stage_of",
                 "root_ids", "counts", "dependents", "out_edges", "_task_names")

    def __init__(self, graph: JobGraph):
        stages = graph.stages
        self.index: Dict[str, int] = {s.name: i for i, s in enumerate(stages)}
        self.names: Tuple[str, ...] = tuple(s.name for s in stages)
        self.sizes: Tuple[int, ...] = tuple(s.num_tasks for s in stages)
        offsets: List[int] = []
        total = 0
        for size in self.sizes:
            offsets.append(total)
            total += size
        self.offsets: Tuple[int, ...] = tuple(offsets)
        self.total: int = total
        #: Per task id: the position of its stage.
        self.stage_of: Tuple[int, ...] = tuple(
            s for s, size in enumerate(self.sizes) for _ in range(size)
        )
        # One int object per task; every tuple of ids below is a slice of it.
        ids = tuple(range(total))
        roots = [
            self.index[name]
            for name in graph.topological_order()
            if not graph.in_edges(name)
        ]
        #: Tasks of the in-edge-free stages, stages in topological order:
        #: what is ready at start.
        self.root_ids: Tuple[int, ...] = tuple(
            task
            for s in roots
            for task in ids[offsets[s]:offsets[s] + self.sizes[s]]
        )
        #: Per task id: the inputs it waits for — one per upstream task
        #: that feeds it pointwise plus one per ALL_TO_ALL in-edge (paid
        #: when that upstream stage completes).  Ready at 0.
        counts = [0] * total
        #: Per task id: the ids it feeds pointwise, per out-edge in edge
        #: order and ascending within an edge — the order they become
        #: ready in.
        dependents: List[Tuple[int, ...]] = [()] * total
        for edge in graph.edges:
            src, dst = self.index[edge.src], self.index[edge.dst]
            n_src, n_dst = self.sizes[src], self.sizes[dst]
            first = offsets[dst]
            if edge.kind is EdgeType.ALL_TO_ALL:
                for j in range(first, first + n_dst):
                    counts[j] += 1
                continue
            for i in range(n_src):
                # The relation is symmetric: the downstream tasks that read
                # upstream ``i`` are ``i``'s own range seen from the other side.
                lo, hi = one_to_one_range(i, n_src, n_dst)
                fed = ids[first + lo:first + hi + 1]
                dependents[offsets[src] + i] += fed
                for j in fed:
                    counts[j] += 1
        self.counts: Tuple[int, ...] = tuple(counts)
        self.dependents: Tuple[Tuple[int, ...], ...] = tuple(dependents)
        #: Per stage, per out-edge: ``(is_barrier, first id, end id)`` of the
        #: downstream stage.  Read only when a stage's last task completes.
        self.out_edges = tuple(
            tuple(
                (e.kind is EdgeType.ALL_TO_ALL, offsets[d], offsets[d] + self.sizes[d])
                for e in graph.out_edges(name)
                for d in (self.index[e.dst],)
            )
            for name in self.names
        )
        self._task_names = None

    @property
    def task_names(self) -> Tuple[Tuple[str, int], ...]:
        """Per task id: its ``(stage name, index)``.  Built when a
        name-addressed caller first asks; the simulator never does."""
        if self._task_names is None:
            self._task_names = tuple(
                (name, i)
                for name, size in zip(self.names, self.sizes)
                for i in range(size)
            )
        return self._task_names


class DependencyTracker:
    """Incremental task-readiness tracking over a :class:`JobGraph`.

    Usage: construct, drain the initially ready tasks, then feed each task
    completion back and schedule the tasks it returns.  There is one
    implementation, addressed by global task id (``stage offset + index``,
    stages in ``graph.stages`` order): :meth:`initially_ready_ids` and
    :meth:`complete_id`.  :meth:`initially_ready` and :meth:`complete`
    speak ``(stage_name, index)`` for the job manager and the service and
    translate to it.  The offline simulator settles a completion that is
    not its stage's last through :meth:`counters` (two decrements, see the
    contract there) and calls :meth:`complete_id` for a stage's last, so
    the barrier edges, the release order across edges and every refusal
    stay here.

    The structure lives in the graph's :class:`_ReadinessPlan`; a tracker
    holds only counters, so construction and ``reset`` are list copies —
    which matters because Jockey's offline simulator replays the same graph
    thousands of times while building C(p, a).
    """

    __slots__ = ("graph", "_plan", "_stage_of", "_dependents", "_counts",
                 "_pending", "_stages_pending", "_roots_pending")

    def __init__(self, graph: JobGraph):
        self.graph = graph
        plan = self._plan = graph._plan
        # What every completion reads, one attribute hop away.
        self._stage_of = plan.stage_of
        self._dependents = plan.dependents
        self.reset()

    def reset(self) -> None:
        """Restore initial readiness state (all tasks un-run) without
        re-deriving structure."""
        plan = self._plan
        #: Per task id: inputs still missing.
        self._counts = list(plan.counts)
        #: Per stage: tasks not yet completed.
        self._pending = list(plan.sizes)
        self._stages_pending = len(plan.sizes)
        self._roots_pending = True

    @property
    def stage_of(self) -> Tuple[int, ...]:
        """Per task id: the position of its stage in ``graph.stages``."""
        return self._stage_of

    @property
    def stage_offsets(self) -> Dict[str, int]:
        """Per stage name: the id of its task 0, so ``(stage, index)`` is id
        ``stage_offsets[stage] + index``."""
        plan = self._plan
        return dict(zip(plan.names, plan.offsets))

    @property
    def task_names(self) -> Tuple[Tuple[str, int], ...]:
        """Per task id: its ``(stage name, index)``."""
        return self._plan.task_names

    def counters(self) -> Tuple[List[int], List[int], Tuple[Tuple[int, ...], ...]]:
        """``(pending, counts, dependents)`` for a caller that settles a
        completion itself: tasks not yet completed per stage, inputs still
        missing per task id, and the ids each task id feeds pointwise.

        The two lists are the tracker's own, live and valid until
        :meth:`reset` replaces them; ``dependents`` is the plan's, read
        only.  Only a completion that is *not* its stage's last may be
        settled through them, exactly as :meth:`complete_id` settles it:
        ``pending[s] -= 1``, then ``counts[j] -= 1`` for each ``j`` in
        ``dependents[id]`` in order, each ``j`` that reaches 0 released in
        that order.  A stage's last completion goes to :meth:`complete_id`,
        which pays the stage's barrier edges and counts the stage done.
        """
        return self._pending, self._counts, self._dependents

    def initially_ready_ids(self) -> Tuple[int, ...]:
        """Ids of the tasks with no unmet dependencies at job start (handed
        out once)."""
        if not self._roots_pending:
            return ()
        self._roots_pending = False
        return self._plan.root_ids

    def complete_id(self, task_id: int) -> List[int]:
        """Record completion of one task; return the ids it made ready."""
        try:
            if task_id < 0:
                raise IndexError
            s = self._stage_of[task_id]
        except IndexError:
            raise GraphError(
                f"task id {task_id} out of range for {self._plan.total} tasks"
            ) from None
        pending = self._pending
        left_in_stage = pending[s] - 1
        if left_in_stage < 0:
            raise GraphError(
                f"stage {self._plan.names[s]!r} completed more tasks than it has"
            )
        pending[s] = left_in_stage
        counts = self._counts
        newly_ready: List[int] = []
        fed = self._dependents[task_id]
        if left_in_stage:
            for j in fed:
                left = counts[j] = counts[j] - 1
                if not left:
                    newly_ready.append(j)
            return newly_ready
        # The stage's last task also pays the stage's ALL_TO_ALL out-edges,
        # edge by edge so shuffled and pointwise releases keep their order.
        self._stages_pending -= 1
        for is_barrier, first, end in self._plan.out_edges[s]:
            # An edge owns its downstream stage, so the id range picks this
            # edge's share out of the task's dependents.
            for j in (
                range(first, end) if is_barrier
                else [t for t in fed if first <= t < end]
            ):
                left = counts[j] = counts[j] - 1
                if not left:
                    newly_ready.append(j)
        return newly_ready

    def initially_ready(self) -> List[Tuple[str, int]]:
        """:meth:`initially_ready_ids` as ``(stage_name, index)`` pairs."""
        names = self._plan.task_names
        return [names[t] for t in self.initially_ready_ids()]

    def complete(self, stage: str, index: int) -> List[Tuple[str, int]]:
        """:meth:`complete_id` for the task ``(stage, index)``."""
        plan = self._plan
        try:
            s = plan.index[stage]
        except KeyError:
            raise GraphError(f"no stage named {stage!r}") from None
        if not 0 <= index < plan.sizes[s]:
            raise GraphError(f"task index {index} out of range for stage {stage!r}")
        names = plan.task_names
        return [names[t] for t in self.complete_id(plan.offsets[s] + index)]

    def stage_positions(self, names: Sequence[str]) -> Tuple[int, ...]:
        """Positions in ``graph.stages`` of the named stages, for
        :meth:`fractions_at`; an unknown name is refused, named."""
        index = self._plan.index
        try:
            return tuple(index[name] for name in names)
        except KeyError as exc:
            raise GraphError(f"no stage named {exc.args[0]!r}") from None

    def fractions_at(self, positions: Sequence[int]) -> List[float]:
        """Fraction of tasks completed in each stage at ``positions``."""
        pending, sizes = self._pending, self._plan.sizes
        return [(sizes[s] - pending[s]) / sizes[s] for s in positions]

    def stage_fractions(self) -> Dict[str, float]:
        """Fraction of each stage's tasks completed, in stage order."""
        names = self._plan.names
        return dict(zip(names, self.fractions_at(range(len(names)))))

    def completed_in_stage(self, stage: str) -> int:
        s = self._plan.index[stage]
        return self._plan.sizes[s] - self._pending[s]

    def is_stage_complete(self, stage: str) -> bool:
        return self._pending[self._plan.index[stage]] == 0

    def all_complete(self) -> bool:
        return self._stages_pending == 0


__all__ = [
    "DependencyTracker",
    "Edge",
    "EdgeType",
    "GraphError",
    "JobGraph",
    "Stage",
    "one_to_one_range",
]
