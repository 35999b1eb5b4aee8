"""Integration tests: the full training -> modeling -> control pipeline at
smoke scale.  These are the slowest tests in the suite (a few seconds)."""

import itertools
from types import SimpleNamespace

import pytest

from repro.experiments import (
    exp_chaos,
    exp_fig4_5,
    exp_fig6_table3,
    exp_fig9_10,
    exp_fig11,
    exp_fig12_13,
    exp_multijob,
    exp_predict,
    exp_section24,
)
from repro.experiments.runner import (
    POLICY_KINDS,
    RunConfig,
    Sweep,
    Variant,
    make_policy,
    run_experiment,
    sample_runtime_scale,
)
from repro.experiments.scenarios import (
    DEFAULT,
    SMOKE,
    clear_trained_cache,
    pick_deadline,
    trained_job,
    trained_jobs,
)
from repro.market.admission import MarketAdmission
from repro.market.tenant import JobSpec, Tenant
from repro.service.models import TrainedTemplate
from repro.simkit.random import RngRegistry, derive_seed


@pytest.fixture(scope="module")
def trained():
    return trained_job("A", seed=0, scale=SMOKE)


class TestTrainingPipeline:
    def test_training_trace_complete(self, trained):
        assert trained.training_trace.finished
        assert (
            len(trained.training_trace.successful_records())
            == trained.graph.num_vertices
        )

    def test_learned_profile_covers_stages(self, trained):
        for stage in trained.graph.stages:
            assert trained.learned_profile.stage(stage.name) is not None

    def test_table_spans_scale_allocations(self, trained):
        assert trained.table.allocations == sorted(SMOKE.allocations)

    def test_deadline_feasible(self, trained):
        fastest = trained.table.predicted_duration(
            max(trained.table.allocations), q=0.9
        )
        assert trained.short_deadline >= 1.5 * fastest
        assert trained.long_deadline == 2 * trained.short_deadline

    def test_cache_returns_same_object(self):
        a = trained_job("A", seed=0, scale=SMOKE)
        b = trained_job("A", seed=0, scale=SMOKE)
        assert a is b

    def test_indicator_tables_cached(self, trained):
        t1 = trained.table_for_indicator("cp")
        t2 = trained.table_for_indicator("cp")
        assert t1 is t2

    def test_all_indicators_constructible(self, trained):
        for kind in ("totalworkWithQ", "totalwork", "vertexfrac", "cp",
                     "minstage", "minstage-inf"):
            indicator = trained.indicator_named(kind)
            fractions = {s: 0.0 for s in trained.learned_profile.stage_names}
            assert indicator.progress(fractions) == pytest.approx(0.0, abs=0.05)


class TestRunExperiment:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_each_policy_completes(self, trained, kind):
        policy = make_policy(kind, trained, trained.long_deadline)
        result = run_experiment(
            trained, policy,
            RunConfig(deadline_seconds=trained.long_deadline, seed=3),
        )
        assert result.metrics.duration_seconds > 0
        assert result.allocation_series
        assert result.metrics.policy == kind

    def test_same_seed_reproduces_exactly(self, trained):
        outcomes = []
        for _ in range(2):
            policy = make_policy("jockey", trained, trained.long_deadline)
            result = run_experiment(
                trained, policy,
                RunConfig(deadline_seconds=trained.long_deadline, seed=11),
            )
            outcomes.append(result.metrics.duration_seconds)
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self, trained):
        durations = set()
        for seed in (1, 2, 3):
            policy = make_policy("jockey", trained, trained.long_deadline)
            result = run_experiment(
                trained, policy,
                RunConfig(deadline_seconds=trained.long_deadline, seed=seed),
            )
            durations.add(result.metrics.duration_seconds)
        assert len(durations) == 3

    def test_deadline_change_applies(self, trained):
        policy = make_policy("jockey", trained, trained.long_deadline)
        result = run_experiment(
            trained, policy,
            RunConfig(
                deadline_seconds=trained.long_deadline,
                seed=5,
                deadline_changes=((60.0, trained.long_deadline * 3),),
            ),
        )
        assert result.final_deadline == trained.long_deadline * 3
        assert result.trace.deadline == trained.long_deadline * 3

    def test_runtime_scale_override(self, trained):
        results = {}
        for scale_factor in (0.8, 1.6):
            policy = make_policy("max-allocation", trained, trained.long_deadline)
            results[scale_factor] = run_experiment(
                trained, policy,
                RunConfig(
                    deadline_seconds=trained.long_deadline, seed=9,
                    runtime_scale=scale_factor, sample_cluster_day=False,
                ),
            ).metrics.duration_seconds
        assert results[1.6] > results[0.8]

    def test_unknown_policy_kind(self, trained):
        with pytest.raises(ValueError):
            make_policy("nonsense", trained, 100.0)


class TestSweep:
    def test_cross_product_size(self, trained):
        sweep = Sweep(
            (Variant("jockey"), Variant("max-allocation", kind="max-allocation")),
            reps=2,
        )
        assert len(sweep.run([trained], seed=0)) == 4

    def test_metrics_carry_policy_names(self, trained):
        sweep = Sweep((Variant("max", kind="max-allocation"),))
        [(_unit, result)] = sweep.run([trained], seed=0)
        assert result.metrics.policy == "max-allocation"


class TestPairedSeeds:
    """One seed rule: ``derive_seed(root, "job:deadline:rep")``, never the
    variant.  Checked on plans: the runs would also differ by retraining,
    since ``trained_jobs(seed)`` depends on the root."""

    def test_two_roots_give_disjoint_fig4_plans(self, trained):
        sweep = exp_fig4_5.policy_sweep(DEFAULT)
        seeds = [
            {u.config.seed for u in sweep.plan([trained], root)}
            for root in (0, 5)
        ]
        assert len(seeds[0]) == len(seeds[1]) == 2 * DEFAULT.reps
        assert not seeds[0] & seeds[1]

    def test_the_unit_key_is_what_seeds_the_unit(self, trained):
        for u in exp_fig4_5.policy_sweep(DEFAULT).plan([trained], 7):
            assert u.key == f"{u.trained.name}:{int(u.config.deadline_seconds)}:{u.rep}"
            assert u.config.seed == derive_seed(7, u.key)

    def test_the_four_kinds_of_a_unit_share_one_seed(self, trained):
        by_key = {}
        for u in exp_fig4_5.policy_sweep(DEFAULT).plan([trained], 0):
            key = (u.trained.name, u.config.deadline_seconds, u.rep)
            by_key.setdefault(key, []).append((u.variant.kind, u.config.seed))
        assert len(by_key) == 2 * DEFAULT.reps
        for cell in by_key.values():
            assert sorted(kind for kind, _ in cell) == sorted(POLICY_KINDS)
            assert len({seed for _, seed in cell}) == 1
        assert len({cell[0][1] for cell in by_key.values()}) == len(by_key)

    def test_sensitivity_baselines_are_fig4_jockey_short_runs(self, trained):
        """fig11's baseline, fig12's slack 1.2 and fig13's hysteresis 0.2
        rows are made of the very runs fig4 makes for jockey at the short
        deadline."""
        jockey = next(
            v for v in exp_fig4_5.policy_sweep(SMOKE).variants
            if v.kind == "jockey"
        )
        variants = (
            jockey,
            exp_fig11.VARIANTS[0],
            next(v for v in exp_fig12_13.SLACK_VARIANTS if v.control.slack == 1.2),
            next(
                v for v in exp_fig12_13.HYSTERESIS_VARIANTS
                if v.control.hysteresis == 0.2
            ),
        )
        runs = [
            Sweep((v,), reps=2).run([trained], seed=0) for v in variants
        ]
        reference = runs[0]
        for rows in runs[1:]:
            for (ua, a), (ub, b) in zip(reference, rows):
                assert ua.config == ub.config
                assert a.metrics == b.metrics
                assert a.allocation_series == b.allocation_series

    @staticmethod
    def _by_rep(variants, reps, trained, root):
        by_rep = {}
        for u in Sweep(variants, reps=reps).plan([trained], root):
            by_rep.setdefault(u.rep, []).append(u)
        assert sorted(by_rep) == list(range(reps))
        return by_rep

    def test_every_chaos_cell_of_a_rep_shares_one_seed(self, trained):
        by_rep = self._by_rep(exp_chaos.VARIANTS, DEFAULT.reps, trained, 0)
        for units in by_rep.values():
            assert sorted(
                (u.config.chaos.intensity, u.variant.control.degraded_fallback)
                for u in units
            ) == sorted(itertools.product(exp_chaos.INTENSITIES, (True, False)))
            assert len({u.config.seed for u in units}) == 1
        assert len({units[0].config.seed for units in by_rep.values()}) == DEFAULT.reps

    def test_every_predict_intensity_of_a_rep_shares_one_seed(self, trained):
        by_rep = self._by_rep(exp_predict.VARIANTS, exp_predict.REPS, trained, 0)
        for units in by_rep.values():
            assert [u.config.chaos.intensity for u in units] == list(exp_predict.INTENSITIES)
            assert len({u.config.seed for u in units}) == 1
        assert len({units[0].config.seed for units in by_rep.values()}) == exp_predict.REPS

    @pytest.mark.parametrize("driver", [exp_chaos, exp_predict], ids=["chaos", "predict"])
    def test_two_roots_give_disjoint_chaos_sweep_plans(self, trained, driver):
        seeds = [
            {u.config.seed for u in Sweep(driver.VARIANTS, reps=2).plan([trained], root)}
            for root in (0, 5)
        ]
        assert len(seeds[0]) == len(seeds[1]) == 2
        assert not seeds[0] & seeds[1]

    # The drivers that are not whole-roster sweeps: each root must give its
    # own runs.  Planned, or with the call the seed flows into recorded.

    @pytest.fixture(scope="class")
    def smoke_jobs(self):
        return trained_jobs(seed=0, scale=SMOKE)

    def test_two_roots_give_disjoint_case_study_runs(self, smoke_jobs):
        seeds = [
            {
                u.config.seed
                for name, sweep in exp_fig6_table3.case_sweeps(SMOKE)
                for u in sweep.plan([smoke_jobs[name]], root)
            }
            for root in (0, 5)
        ]
        assert seeds[0] and seeds[1] and not seeds[0] & seeds[1]

    def test_table3_reruns_share_one_seed(self, trained):
        (_job, sweep), *_ = exp_fig6_table3.case_sweeps(DEFAULT)
        rerun_1, rerun_2 = sweep.plan([trained], 0)
        assert rerun_1.variant is exp_fig6_table3.OVERLOAD
        assert rerun_2.variant is exp_fig6_table3.RERUN_2
        assert rerun_1.config.seed == rerun_2.config.seed
        assert rerun_1.config.runtime_scale != rerun_2.config.runtime_scale

    def test_multijob_modes_share_each_rep_and_roots_do_not(self, smoke_jobs, monkeypatch):
        calls = []

        def run_multi_job(jobs, *, mode, seed, runtime_scales, **_):
            calls.append((mode, seed, runtime_scales))
            return SimpleNamespace(
                jobs_missed=0, per_job=dict.fromkeys(runtime_scales),
                worst_relative_latency=0.5,
            )

        monkeypatch.setattr(exp_multijob, "run_multi_job", run_multi_job)
        monkeypatch.setattr(exp_multijob, "trained_job", lambda name, **_: smoke_jobs[name])
        seeds = []
        for root in (0, 5):
            del calls[:]
            exp_multijob.run(SMOKE, seed=root)
            by_mode = {}
            for mode, seed, scales in calls:
                by_mode.setdefault(mode, []).append((seed, scales))
            # Same seed and same input scales per rep under both modes.
            assert by_mode["independent"] == by_mode["arbiter"]
            seeds.append({seed for seed, _ in by_mode["arbiter"]})
            assert len(seeds[-1]) == 2
        assert not seeds[0] & seeds[1]

    def test_two_roots_give_disjoint_indicator_runs(self, smoke_jobs, monkeypatch):
        seeds = []
        real = exp_fig9_10.sample_fraction_timeline

        def sample_fraction_timeline(tj, *, seed):
            seeds[-1][tj.name] = seed
            return real(tj, seed=seed)

        monkeypatch.setattr(exp_fig9_10, "sample_fraction_timeline", sample_fraction_timeline)
        monkeypatch.setattr(exp_fig9_10, "trained_jobs", lambda **_: smoke_jobs)
        for root in (0, 5):
            seeds.append({})
            exp_fig9_10.run(SMOKE, seed=root)
        # One run per job, its own seed, read by both figures.
        assert [sorted(s) for s in seeds] == [sorted(SMOKE.jobs)] * 2
        assert len(set(seeds[0].values())) == len(SMOKE.jobs)
        assert not set(seeds[0].values()) & set(seeds[1].values())

    def test_two_roots_give_disjoint_quota_runs(self, monkeypatch):
        seeds = []
        real = exp_section24.Cluster

        def cluster(sim, config, *, rng):
            seeds[-1].append(rng.seed)
            return real(sim, config, rng=rng)

        monkeypatch.setattr(exp_section24, "Cluster", cluster)
        monkeypatch.setattr(
            exp_section24, "run_to_completion",
            lambda manager: SimpleNamespace(running_timeline=[(0.0, 1)]),
        )
        for root in (0, 5):
            seeds.append([])
            exp_section24.run_quota_sizing(SMOKE, seed=root)
        assert len(set(seeds[0])) == len(seeds[0]) == 10
        assert not set(seeds[0]) & set(seeds[1])


class TestRuntimeScaleSampler:
    def test_within_clip(self):
        rng = RngRegistry(0).stream("x")
        samples = [sample_runtime_scale(rng) for _ in range(500)]
        assert all(0.7 <= s <= 1.7 for s in samples)
        assert min(samples) < 1.0 < max(samples)


class TestRunConfigBoundary:
    """A bad period or scale is refused at construction, naming the field;
    it once failed at the first tick (``delay must be >= 0, got nan``,
    ``period must be positive``) or in ``Scaled``."""

    @pytest.mark.parametrize("field", ["control_period", "runtime_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(
            ValueError,
            match=f"^RunConfig.{field} must be positive and finite, got",
        ):
            RunConfig(deadline_seconds=600.0, **{field: value})

    def test_runtime_scale_none_samples_one_per_seed(self):
        assert RunConfig(deadline_seconds=600.0).runtime_scale is None


class TestAdmissionIntegration:
    def test_admission_with_real_table(self, trained):
        """Copies of a trained job fill one 100-token tenant and then wait;
        the job's own C(p, a) minimum is feasible inside that quota."""
        shape = TrainedTemplate(
            trained.name, trained.graph, trained.learned_profile, trained.table
        )
        tenant = Tenant(name="slo", quota=100)
        admission = MarketAdmission(slack=1.2)
        outcomes = []
        while len(outcomes) < 50:
            spec = JobSpec(
                name=f"job{len(outcomes) + 1}",
                tenant="slo",
                work=shape.total_work_seconds,
                width=min(100, shape.width),
                deadline_seconds=trained.short_deadline,
            )
            outcomes.append(admission.admit_one(tenant, spec, 0.0)[0])
            if outcomes[-1] != "admitted":
                break
        assert outcomes[0] == "admitted"
        assert outcomes[-1] == "queued", "slice should saturate eventually"
        assert tenant.guaranteed_in_use <= 100
        minimum = trained.table.min_allocation_for(
            trained.short_deadline / 1.2
        )
        assert minimum is not None and minimum <= 100
