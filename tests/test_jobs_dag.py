"""Unit and property tests for job graphs and dependency tracking."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.dag import (
    DependencyTracker,
    Edge,
    EdgeType,
    GraphError,
    JobGraph,
    Stage,
    one_to_one_range,
)


def chain_graph():
    """extract(4) -> process(4) -> aggregate(2), pointwise then shuffle."""
    return JobGraph(
        "chain",
        [Stage("extract", 4), Stage("process", 4), Stage("aggregate", 2)],
        [
            Edge("extract", "process", EdgeType.ONE_TO_ONE),
            Edge("process", "aggregate", EdgeType.ALL_TO_ALL),
        ],
    )


def diamond_graph():
    return JobGraph(
        "diamond",
        [Stage("src", 2), Stage("left", 2), Stage("right", 2), Stage("join", 2)],
        [
            Edge("src", "left", EdgeType.ONE_TO_ONE),
            Edge("src", "right", EdgeType.ONE_TO_ONE),
            Edge("left", "join", EdgeType.ONE_TO_ONE),
            Edge("right", "join", EdgeType.ONE_TO_ONE),
        ],
    )


class TestStageAndEdgeValidation:
    def test_stage_needs_tasks(self):
        with pytest.raises(GraphError):
            Stage("s", 0)

    def test_stage_needs_name(self):
        with pytest.raises(GraphError):
            Stage("", 1)

    def test_graph_needs_stages(self):
        with pytest.raises(GraphError):
            JobGraph("g", [], [])

    def test_graph_needs_name(self):
        with pytest.raises(GraphError):
            JobGraph("", [Stage("s", 1)], [])

    def test_duplicate_stage_rejected(self):
        with pytest.raises(GraphError):
            JobGraph("g", [Stage("s", 1), Stage("s", 2)], [])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(GraphError):
            JobGraph("g", [Stage("a", 1)], [Edge("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            JobGraph("g", [Stage("a", 1)], [Edge("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            JobGraph(
                "g",
                [Stage("a", 1), Stage("b", 1)],
                [Edge("a", "b"), Edge("a", "b", EdgeType.ALL_TO_ALL)],
            )

    def test_cycle_rejected(self):
        with pytest.raises(GraphError, match="cycle"):
            JobGraph(
                "g",
                [Stage("a", 1), Stage("b", 1)],
                [Edge("a", "b"), Edge("b", "a")],
            )


class TestGraphStructure:
    def test_topological_order_respects_edges(self):
        graph = diamond_graph()
        order = graph.topological_order()
        assert order.index("src") < order.index("left") < order.index("join")
        assert order.index("src") < order.index("right") < order.index("join")

    def test_roots_and_leaves(self):
        graph = chain_graph()
        assert graph.roots() == ("extract",)
        assert graph.leaves() == ("aggregate",)

    def test_parents_children(self):
        graph = diamond_graph()
        assert set(graph.children("src")) == {"left", "right"}
        assert set(graph.parents("join")) == {"left", "right"}

    def test_num_vertices(self):
        assert chain_graph().num_vertices == 10

    def test_barrier_stages(self):
        graph = chain_graph()
        assert graph.barrier_stages() == ("aggregate",)
        assert graph.num_barrier_stages == 1

    def test_contains(self):
        graph = chain_graph()
        assert "extract" in graph
        assert "nope" not in graph

    def test_unknown_stage_raises(self):
        with pytest.raises(GraphError):
            chain_graph().stage("nope")

    def test_render_ascii_mentions_barriers(self):
        text = chain_graph().render_ascii()
        assert "aggregate" in text
        assert "▲" in text  # the shuffle marker


class TestCriticalPath:
    def test_chain_sums(self):
        graph = chain_graph()
        times = {"extract": 1.0, "process": 2.0, "aggregate": 4.0}
        assert max(graph.longest_path_from(times).values()) == 7.0

    def test_diamond_takes_longest_branch(self):
        graph = diamond_graph()
        times = {"src": 1.0, "left": 10.0, "right": 2.0, "join": 1.0}
        assert max(graph.longest_path_from(times).values()) == 12.0

    def test_longest_path_from_is_inclusive(self):
        graph = chain_graph()
        times = {"extract": 1.0, "process": 2.0, "aggregate": 4.0}
        paths = graph.longest_path_from(times)
        assert paths["aggregate"] == 4.0
        assert paths["process"] == 6.0
        assert paths["extract"] == 7.0

    def test_missing_stage_time_counts_zero(self):
        graph = chain_graph()
        assert set(graph.longest_path_from({}).values()) == {0.0}


class TestOneToOneRange:
    def test_equal_counts_identity(self):
        for i in range(5):
            assert one_to_one_range(i, 5, 5) == (i, i)

    def test_fan_in(self):
        # 4 upstream feeding 2 downstream: each downstream reads two.
        assert one_to_one_range(0, 2, 4) == (0, 1)
        assert one_to_one_range(1, 2, 4) == (2, 3)

    def test_fan_out(self):
        # 2 upstream feeding 4 downstream: pairs share an input.
        assert [one_to_one_range(i, 4, 2) for i in range(4)] == [
            (0, 0), (0, 0), (1, 1), (1, 1),
        ]

    def test_uneven_overlap(self):
        # 3 -> 2: middle upstream task feeds both downstream tasks.
        assert one_to_one_range(0, 2, 3) == (0, 1)
        assert one_to_one_range(1, 2, 3) == (1, 2)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            one_to_one_range(2, 2, 4)

    @given(
        n_src=st.integers(1, 40),
        n_dst=st.integers(1, 40),
    )
    @settings(max_examples=200)
    def test_forward_reverse_consistency(self, n_src, n_dst):
        """Downstream i depends on upstream j  iff  the reverse mapping from
        j covers i — the invariant DependencyTracker.complete relies on."""
        forward = {
            i: set(range(*_incl(one_to_one_range(i, n_dst, n_src))))
            for i in range(n_dst)
        }
        reverse = {
            j: set(range(*_incl(one_to_one_range(j, n_src, n_dst))))
            for j in range(n_src)
        }
        for i in range(n_dst):
            for j in range(n_src):
                assert (j in forward[i]) == (i in reverse[j])

    @given(n_src=st.integers(1, 40), n_dst=st.integers(1, 40))
    @settings(max_examples=200)
    def test_every_task_covered(self, n_src, n_dst):
        """Every downstream task has >= 1 input; every upstream task feeds
        >= 1 downstream task."""
        for i in range(n_dst):
            lo, hi = one_to_one_range(i, n_dst, n_src)
            assert 0 <= lo <= hi < n_src
        fed = set()
        for i in range(n_dst):
            lo, hi = one_to_one_range(i, n_dst, n_src)
            fed.update(range(lo, hi + 1))
        assert fed == set(range(n_src))


def _incl(pair):
    lo, hi = pair
    return lo, hi + 1


def drain(tracker):
    """Run the whole graph through the tracker in FIFO order; returns the
    completion order."""
    ready = list(tracker.initially_ready())
    done = []
    while ready:
        task = ready.pop(0)
        done.append(task)
        ready.extend(tracker.complete(*task))
    return done


class TestDependencyTracker:
    def test_initially_ready_is_roots_only(self):
        tracker = DependencyTracker(chain_graph())
        assert set(tracker.initially_ready()) == {("extract", i) for i in range(4)}

    def test_pointwise_release(self):
        tracker = DependencyTracker(chain_graph())
        tracker.initially_ready()
        newly = tracker.complete("extract", 2)
        assert newly == [("process", 2)]

    def test_barrier_waits_for_whole_stage(self):
        tracker = DependencyTracker(chain_graph())
        tracker.initially_ready()
        released = []
        for i in range(4):
            released += tracker.complete("extract", i)
        # process tasks released pointwise; aggregate not yet.
        assert all(stage == "process" for stage, _ in released)
        for i in range(3):
            assert tracker.complete("process", i) == []
        final = tracker.complete("process", 3)
        assert set(final) == {("aggregate", 0), ("aggregate", 1)}

    def test_all_complete_after_drain(self):
        tracker = DependencyTracker(chain_graph())
        done = drain(tracker)
        assert tracker.all_complete()
        assert len(done) == chain_graph().num_vertices

    def test_diamond_join_needs_both_branches(self):
        tracker = DependencyTracker(diamond_graph())
        tracker.initially_ready()
        tracker.complete("src", 0)
        tracker.complete("src", 1)
        assert tracker.complete("left", 0) == []  # join[0] still needs right[0]
        assert tracker.complete("right", 0) == [("join", 0)]

    def test_completed_in_stage_counts(self):
        tracker = DependencyTracker(chain_graph())
        tracker.initially_ready()
        tracker.complete("extract", 0)
        assert tracker.completed_in_stage("extract") == 1
        assert not tracker.is_stage_complete("extract")

    def test_reset_restores_initial_state(self):
        tracker = DependencyTracker(chain_graph())
        drain(tracker)
        tracker.reset()
        assert not tracker.all_complete()
        assert set(tracker.initially_ready()) == {("extract", i) for i in range(4)}

    def test_counters_are_live_until_reset(self):
        tracker = DependencyTracker(chain_graph())
        pending, counts, dependents = tracker.counters()
        assert (pending, counts) == ([4, 4, 2], [0] * 4 + [1] * 4 + [1] * 2)
        assert dependents == tracker._plan.dependents
        tracker.complete_id(0)
        assert (pending[0], counts[4]) == (3, 0)
        tracker.reset()
        assert tracker.counters()[0] is not pending
        assert tracker.counters()[:2] == ([4, 4, 2], [0] * 4 + [1] * 4 + [1] * 2)

    def test_overcompletion_rejected(self):
        tracker = DependencyTracker(chain_graph())
        tracker.initially_ready()
        tracker.complete("extract", 0)
        for i in range(1, 4):
            tracker.complete("extract", i)
        with pytest.raises(GraphError):
            tracker.complete("extract", 0)

    def test_bad_index_rejected(self):
        tracker = DependencyTracker(chain_graph())
        with pytest.raises(GraphError):
            tracker.complete("extract", 99)

    def test_unknown_stage_names_the_stage(self):
        tracker = DependencyTracker(chain_graph())
        with pytest.raises(GraphError, match="'nope'"):
            tracker.complete("nope", 0)

    @pytest.mark.parametrize("bad_call", [("extract", 0), ("extract", 4),
                                          ("extract", -1), ("nope", 0)])
    def test_rejected_completion_leaves_state_untouched(self, bad_call):
        """An over-completion, a bad index or an unknown stage raises before
        anything is counted: the tracker carries on as if never asked."""
        tracker = DependencyTracker(chain_graph())
        tracker.initially_ready()
        for i in range(4):
            tracker.complete("extract", i)
        with pytest.raises(GraphError):
            tracker.complete(*bad_call)
        assert tracker.completed_in_stage("extract") == 4
        assert tracker.is_stage_complete("extract")
        for i in range(3):
            assert tracker.complete("process", i) == []
        assert tracker.complete("process", 3) == [("aggregate", 0), ("aggregate", 1)]
        assert not tracker.all_complete()
        tracker.complete("aggregate", 0)
        tracker.complete("aggregate", 1)
        assert tracker.all_complete()

    @pytest.mark.parametrize("bad_id", [0, 3, -1, -10, 10, 99])
    def test_rejected_id_completion_leaves_state_untouched(self, bad_id):
        """The id core has the same rule: an over-completion (ids 0 and 3:
        ``extract`` is done) or an id outside the graph — negative ones
        included, which would index from the end — raises before anything is
        counted."""
        tracker = DependencyTracker(chain_graph())
        assert tracker.initially_ready_ids() == (0, 1, 2, 3)
        released = [j for i in range(4) for j in tracker.complete_id(i)]
        assert released == [4, 5, 6, 7]
        with pytest.raises(GraphError):
            tracker.complete_id(bad_id)
        assert tracker.stage_fractions() == {
            "extract": 1.0, "process": 0.0, "aggregate": 0.0,
        }
        for i in (4, 5, 6):
            assert tracker.complete_id(i) == []
        assert tracker.complete_id(7) == [8, 9]
        assert not tracker.all_complete()
        assert tracker.complete_id(8) == tracker.complete_id(9) == []
        assert tracker.all_complete()

    def test_ids_and_names_are_one_tracker(self):
        """A completion recorded by id is seen by name and the other way
        round: the adapters keep no state of their own."""
        tracker = DependencyTracker(chain_graph())
        assert tracker.initially_ready() == [("extract", i) for i in range(4)]
        assert tracker.initially_ready_ids() == ()
        assert tracker.complete_id(2) == [6]
        assert tracker.complete("extract", 0) == [("process", 0)]
        assert tracker.completed_in_stage("extract") == 2
        assert [tracker.stage_of[t] for t in (0, 3, 4, 7, 8, 9)] == [0, 0, 1, 1, 2, 2]

    def test_initially_ready_hands_out_roots_once(self):
        tracker = DependencyTracker(chain_graph())
        assert len(tracker.initially_ready()) == 4
        assert tracker.initially_ready() == []

    def test_stage_fractions_in_stage_order(self):
        tracker = DependencyTracker(chain_graph())
        tracker.complete("extract", 1)
        fractions = tracker.stage_fractions()
        assert list(fractions) == ["extract", "process", "aggregate"]
        assert fractions == {"extract": 0.25, "process": 0.0, "aggregate": 0.0}

    def test_positional_read_out(self):
        """Positions in any order of names; the fractions at them are
        the mapping's values; an unknown name is refused, named."""
        tracker = DependencyTracker(chain_graph())
        tracker.complete("extract", 1)
        tracker.complete("extract", 2)
        positions = tracker.stage_positions(["aggregate", "extract"])
        assert positions == (2, 0)
        assert tracker.fractions_at(positions) == [0.0, 0.5]
        with pytest.raises(GraphError, match="no stage named 'shuffle'"):
            tracker.stage_positions(["extract", "shuffle"])

    def test_multi_barrier_stage(self):
        graph = JobGraph(
            "two-barriers",
            [Stage("a", 2), Stage("b", 2), Stage("c", 1)],
            [
                Edge("a", "c", EdgeType.ALL_TO_ALL),
                Edge("b", "c", EdgeType.ALL_TO_ALL),
            ],
        )
        tracker = DependencyTracker(graph)
        tracker.initially_ready()
        tracker.complete("a", 0)
        tracker.complete("a", 1)  # first barrier satisfied
        tracker.complete("b", 0)
        assert tracker.complete("b", 1) == [("c", 0)]

    @given(seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_generated_jobs_always_drain(self, seed):
        """Property: every generated workload DAG is fully executable —
        no task is ever orphaned by the readiness logic."""
        from repro.jobs.workloads import random_job

        generated = random_job(f"p{seed}", seed=seed, num_vertices=80)
        tracker = DependencyTracker(generated.graph)
        done = drain(tracker)
        assert tracker.all_complete()
        assert len(done) == generated.graph.num_vertices


class TestReadinessPlan:
    def test_trackers_share_one_plan(self):
        graph = chain_graph()
        assert DependencyTracker(graph)._plan is DependencyTracker(graph)._plan

    def test_accessors_return_stored_tuples(self):
        graph = chain_graph()
        assert graph.stages is graph.stages
        assert graph.in_edges("process") is graph.in_edges("process")
        assert graph.out_edges("process") is graph.out_edges("process")

    def test_plan_does_not_ride_along_in_the_pickle(self):
        """Build units ship the graph to worker processes; the plan is
        derived data and is rebuilt there on first use."""
        graph = chain_graph()
        before = pickle.dumps(graph)
        drain(DependencyTracker(graph))
        assert pickle.dumps(graph) == before
        clone = pickle.loads(before)
        assert "_plan" not in vars(clone)
        assert drain(DependencyTracker(clone)) == drain(DependencyTracker(graph))

    def test_name_table_is_built_for_the_first_name_addressed_caller(self):
        """A process that only simulates (ids in, ids out) never allocates
        the ``(stage, index)`` table; the job manager's first call does,
        once per graph."""
        graph = chain_graph()
        tracker = DependencyTracker(graph)
        ready = list(tracker.initially_ready_ids())
        for task in ready:
            ready.extend(tracker.complete_id(task))
        assert tracker.all_complete()
        assert graph._plan._task_names is None
        drain(DependencyTracker(graph))
        table = graph._plan._task_names
        assert table == tuple(
            (stage.name, i) for stage in graph.stages for i in range(stage.num_tasks)
        )
        drain(DependencyTracker(graph))
        assert graph._plan._task_names is table

    def test_plan_memory_is_per_task_and_per_pointwise_input(self):
        """|V| tuples holding one entry per pointwise (upstream, downstream)
        pair; an all-to-all edge between 40 and 30 tasks adds no entry."""
        graph = JobGraph(
            "wide",
            [Stage("a", 40), Stage("b", 30), Stage("c", 60)],
            [Edge("a", "b", EdgeType.ALL_TO_ALL), Edge("b", "c")],
        )
        plan = graph._plan
        assert len(plan.dependents) == len(plan.counts) == graph.num_vertices
        assert sum(map(len, plan.dependents)) == 60
        assert plan.counts == (0,) * 40 + (1,) * 30 + (1,) * 60


class NaiveTracker:
    """Readiness by definition — a task is ready once every task it reads
    from is done — recomputed from the graph on every call.  The reference
    the compiled tracker is checked against; lives in this file only."""

    def __init__(self, graph):
        self.graph = graph
        self.done = set()
        self.released = set()

    def _inputs(self, stage, i):
        n = self.graph.stage(stage).num_tasks
        for edge in self.graph.in_edges(stage):
            n_src = self.graph.stage(edge.src).num_tasks
            lo, hi = (
                (0, n_src - 1) if edge.kind is EdgeType.ALL_TO_ALL
                else one_to_one_range(i, n, n_src)
            )
            yield from ((edge.src, k) for k in range(lo, hi + 1))

    def _release(self, stages):
        out = []
        for name in stages:
            for i in range(self.graph.stage(name).num_tasks):
                if (name, i) not in self.released and all(
                    task in self.done for task in self._inputs(name, i)
                ):
                    self.released.add((name, i))
                    out.append((name, i))
        return out

    def initially_ready(self):
        return self._release(self.graph.topological_order())

    def complete(self, stage, index):
        self.done.add((stage, index))
        return self._release(self.graph.children(stage))

    def all_complete(self):
        return len(self.done) == self.graph.num_vertices


@st.composite
def random_dags(draw):
    """Small DAGs with every readiness shape: pointwise edges between
    unequal task counts, shuffles, stages fed by both kinds, stages behind
    several barriers, several roots."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    stages = [Stage(f"s{i}", n) for i, n in enumerate(sizes)]
    kinds = st.sampled_from([None, EdgeType.ONE_TO_ONE, EdgeType.ALL_TO_ALL])
    edges = []
    for dst in range(len(stages)):
        for src in range(dst):
            kind = draw(kinds)
            if kind is not None:
                edges.append(Edge(f"s{src}", f"s{dst}", kind))
    return JobGraph("random", stages, draw(st.permutations(edges)))


def drain_randomly(tracker, order):
    """Complete ready tasks in a random order; returns every reply."""
    ready = tracker.initially_ready()
    replies = [list(ready)]
    while ready:
        reply = tracker.complete(*ready.pop(order.randrange(len(ready))))
        replies.append(reply)
        ready.extend(reply)
    return replies


class TestAgainstNaiveReference:
    @given(graph=random_dags(), order=st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_every_reply_matches(self, graph, order):
        compiled, naive = DependencyTracker(graph), NaiveTracker(graph)
        ready = compiled.initially_ready()
        assert ready == naive.initially_ready()
        assert compiled.initially_ready() == naive.initially_ready() == []
        completions = 0
        while ready:
            assert compiled.all_complete() == naive.all_complete() is False
            task = ready.pop(order.randrange(len(ready)))
            reply = compiled.complete(*task)
            assert reply == naive.complete(*task)
            ready.extend(reply)
            completions += 1
        assert completions == graph.num_vertices
        assert compiled.all_complete() and naive.all_complete()

    @given(graph=random_dags(), order=st.randoms(use_true_random=False))
    def test_id_core_and_name_adapter_match(self, graph, order):
        """Three trackers in lockstep: the id core driven by ids, the name
        adapter driven by names, and readiness by definition.  Ids are
        translated here (stage offset + index), not by the plan's table."""
        names = [
            (stage.name, i) for stage in graph.stages for i in range(stage.num_tasks)
        ]
        by_id, by_name, naive = (
            DependencyTracker(graph), DependencyTracker(graph), NaiveTracker(graph)
        )
        ready = naive.initially_ready()
        assert [names[t] for t in by_id.initially_ready_ids()] == ready
        assert by_name.initially_ready() == ready
        assert by_id.initially_ready_ids() == ()
        while ready:
            task = ready.pop(order.randrange(len(ready)))
            reply = naive.complete(*task)
            assert [names[t] for t in by_id.complete_id(names.index(task))] == reply
            assert by_name.complete(*task) == reply
            assert by_id.stage_fractions() == by_name.stage_fractions()
            ready.extend(reply)
        assert by_id.all_complete() and by_name.all_complete()
        with pytest.raises(GraphError):
            by_id.complete_id(0)

    @given(graph=random_dags(), order=st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_reset_replays_identically(self, graph, order):
        tracker = DependencyTracker(graph)
        state = order.getstate()
        first = drain_randomly(tracker, order)
        tracker.reset()
        order.setstate(state)
        assert drain_randomly(tracker, order) == first

    @given(graph=random_dags(), order=st.randoms(use_true_random=False))
    def test_counters_settle_as_complete_id_does(self, graph, order):
        """Two trackers in lockstep: one completes every task through
        ``complete_id``; the other settles each completion that is not its
        stage's last through ``counters()``, as the simulator's loop does,
        and calls ``complete_id`` for the last.  Releases, both counter
        lists and the read-out agree after every step."""
        by_call, settled = DependencyTracker(graph), DependencyTracker(graph)
        pending, counts, dependents = settled.counters()
        stage_of = settled.stage_of
        positions = range(graph.num_stages)
        ready = list(by_call.initially_ready_ids())
        assert list(settled.initially_ready_ids()) == ready
        settled_here = 0
        while ready:
            task = ready.pop(order.randrange(len(ready)))
            reply = by_call.complete_id(task)
            s = stage_of[task]
            if pending[s] > 1:
                pending[s] -= 1
                released = []
                for j in dependents[task]:
                    counts[j] -= 1
                    if not counts[j]:
                        released.append(j)
                settled_here += 1
            else:
                released = settled.complete_id(task)
            assert released == reply
            assert settled.counters()[:2] == by_call.counters()[:2]
            assert settled.fractions_at(positions) == by_call.fractions_at(positions)
            assert settled.all_complete() == by_call.all_complete()
            ready.extend(reply)
        assert settled.all_complete()
        assert settled_here == graph.num_vertices - graph.num_stages
