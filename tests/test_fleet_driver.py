"""Tests for the fleet driver: warm-path efficiency, drift-triggered
refresh, the profile round-trip under injected drift, and spec parsing.

The two acceptance properties pinned here: a calm fleet day performs
**zero** C(p, a) rebuilds (the warm path), and an injected drift makes a
drift-gated mode rebuild while ``stale`` keeps its pinned model.
"""

import dataclasses
import os

import pytest

from repro.cache import profile_fingerprint
from repro.chaos.injectors import drifted_profile
from repro.chaos.spec import ProfileDrift
from repro.core.control import ControlConfig
from repro.experiments.scenarios import SMOKE, run_training
from repro.fleet.driver import (
    FleetConfig,
    FleetTemplate,
    _generate,
    fleet_spec_from_dict,
    load_fleet_spec,
    run_fleet,
)
from repro.fleet.store import FleetError, FleetSpecError, ProfileStore
from repro.jobs.profiles import JobProfile
from repro.jobs.workloads import generate_table2_jobs, mapreduce_job
from tests.test_core_policies import slice_peak


@pytest.fixture(scope="module")
def fleet_env(tmp_path_factory):
    """Module-shared cache dir: the paired fleets below retrain from the
    same bootstrap profile, so they share table builds."""
    cache = tmp_path_factory.mktemp("fleet_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        yield cache
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="module")
def calm_fleet(fleet_env, tmp_path_factory):
    store = tmp_path_factory.mktemp("calm_store")
    config = FleetConfig(
        days=2, model_mode="ewma", scale=SMOKE, seed=0,
        store_root=str(store), keep_last_result=True,
    )
    return run_fleet([FleetTemplate("A")], config), store


DRIFT = ProfileDrift(at=1.0, factor=1.6)

#: Detection is a statistical test on one day's run, so it is judged over
#: seeds: a property that holds at one seed can be a lucky draw.
DRIFT_SEEDS = range(10)


def drifted_config(mode, seed):
    return FleetConfig(
        days=3, model_mode=mode, drift=DRIFT, scale=SMOKE, seed=seed,
        deadline_trim=1.0,
    )


@pytest.fixture(scope="module")
def drifted(fleet_env):
    """seed -> {mode: one-template fleet} for the paired ewma/stale arms."""
    return {
        seed: {
            mode: run_fleet([FleetTemplate("A")], drifted_config(mode, seed))
            for mode in ("ewma", "stale")
        }
        for seed in DRIFT_SEEDS
    }


def detection_days(result):
    return [r.day for r in result.rows if r.drift_significant]


class TestWarmPath:
    def test_calm_fleet_never_rebuilds(self, calm_fleet):
        result, _store = calm_fleet
        summary = result.summaries[0]
        assert summary.rebuilds == 0
        assert summary.drift_detections == 0
        assert summary.profiling_runs == 1  # the bootstrap only
        assert all(not r.rebuilt for r in result.rows)

    def test_lineage_grows_one_generation_per_day(self, calm_fleet):
        result, store_root = calm_fleet
        store = ProfileStore(store_root)
        # Bootstrap + one generation per simulated day.
        assert len(store.generations("A")) == 1 + result.days
        assert result.summaries[0].final_generation == result.days

    def test_staleness_grows_without_refresh(self, calm_fleet):
        result, _store = calm_fleet
        assert [r.staleness_days for r in result.rows] == [0, 1]

    def test_last_run_stays_within_the_slice(self, calm_fleet):
        result, _store = calm_fleet
        last = result.last_results["A"]
        assert last.audit_records
        assert slice_peak(
            last.audit_records, last.trace.allocation_timeline
        ) <= ControlConfig().max_tokens

    def test_digest_shape(self, calm_fleet):
        result, _store = calm_fleet
        digest = result.to_digest()
        assert digest["mode"] == "ewma"
        assert len(digest["runs"]) == result.days
        assert digest["summaries"][0]["template"] == "A"


class TestDriftRefresh:
    """Over seeds 0-9: at least 9 detect the drift and act on it, none
    before the drift day, and ``stale`` never rebuilds."""

    def test_drift_triggers_rebuild(self, drifted):
        ewma = [arms["ewma"].summaries[0] for arms in drifted.values()]
        assert sum(
            1 for s in ewma if s.drift_detections >= 1 and s.rebuilds >= 1
        ) >= 9

    def test_no_rebuild_before_drift(self, drifted):
        for arms in drifted.values():
            for result in arms.values():
                pre = [r for r in result.rows if r.day < int(DRIFT.at)]
                assert all(not r.rebuilt for r in pre)
                assert all(not r.drift_significant for r in pre)

    def test_detection_lands_on_or_after_drift_day(self, drifted):
        hits = [detection_days(arms["ewma"]) for arms in drifted.values()]
        assert sum(1 for days in hits if days) >= 9
        assert all(min(days) >= int(DRIFT.at) for days in hits if days)

    def test_stale_mode_never_rebuilds(self, drifted):
        stale = [arms["stale"] for arms in drifted.values()]
        assert all(result.summaries[0].rebuilds == 0 for result in stale)
        # The drift is still *observed* (and recorded), just not acted on.
        assert sum(1 for result in stale if detection_days(result)) >= 9

    def test_paired_arms_share_deadline(self, drifted):
        for arms in drifted.values():
            assert (
                arms["ewma"].summaries[0].deadline_minutes
                == arms["stale"].summaries[0].deadline_minutes
            )


class TestProfileRoundTripUnderDrift:
    """ISSUE satellite: a run executed with a ProfileDrift applied,
    re-profiled via ``JobProfile.from_trace``, reproduces the drifted
    stage means."""

    def test_from_trace_reproduces_drifted_means(self, fleet_env):
        generated = mapreduce_job(num_maps=80, num_reduces=8)
        drift = ProfileDrift(at=0.0, factor=1.5)
        truth = drifted_profile(generated.profile, drift)

        def relearn(profile, seed=11):
            trace = run_training(
                dataclasses.replace(generated, profile=profile),
                seed=seed,
                allocation=40,
            )
            return JobProfile.from_trace(
                generated.graph, trace, min_failure_prob=0.001
            )

        calm = relearn(generated.profile)
        drifted = relearn(truth)
        for stage in truth.stage_names:
            learned = drifted.stage(stage).runtime.mean()
            expected = truth.stage(stage).runtime.mean()
            # Single-run stage means are noisy; the drilled-in factor must
            # still dominate the noise.
            assert learned == pytest.approx(expected, rel=0.35), stage
            ratio = learned / calm.stage(stage).runtime.mean()
            assert 1.15 < ratio < 1.95, stage

    def test_stage_scoped_drift_leaves_other_stages_alone(self):
        generated = mapreduce_job(num_maps=16, num_reduces=4)
        drift = ProfileDrift(at=0.0, factor=2.0, stages=("map",))
        truth = drifted_profile(generated.profile, drift)
        assert truth.stage("map").runtime.mean() == pytest.approx(
            2.0 * generated.profile.stage("map").runtime.mean()
        )
        assert truth.stage("reduce").runtime.mean() == pytest.approx(
            generated.profile.stage("reduce").runtime.mean()
        )


class TestRunFleetValidation:
    def test_empty_templates(self):
        with pytest.raises(FleetError, match="at least one"):
            run_fleet([], FleetConfig())

    def test_duplicate_names(self):
        with pytest.raises(FleetError, match="duplicate"):
            run_fleet([FleetTemplate("A"), FleetTemplate("A", job="C")])

    def test_unknown_job_names_offender(self):
        with pytest.raises(FleetError, match="unknown template job 'ZZZ'"):
            run_fleet([FleetTemplate("ZZZ")], FleetConfig(days=1))

    def test_template_job_is_its_entry_among_the_seven(self):
        config = FleetConfig(seed=5, scale=SMOKE)
        generated = _generate(FleetTemplate("nightly", job="D"), config)
        expected = generate_table2_jobs(
            seed=5, vertex_scale=SMOKE.vertex_scale
        )["D"]
        # Graph and per-stage statistics both go into the fingerprint.
        assert profile_fingerprint(generated.profile) == profile_fingerprint(
            expected.profile
        )

    def test_bad_mode(self):
        with pytest.raises(FleetError, match="unknown model mode"):
            FleetConfig(model_mode="clairvoyant")

    def test_bad_days(self):
        with pytest.raises(FleetError, match=r"^FleetConfig\.days must be an integer >= 1, got 0$"):
            FleetConfig(days=0)

    def test_bad_deadline_trim(self):
        with pytest.raises(
            FleetError, match=r"^FleetConfig\.deadline_trim must be in \(0, 1\.5\], got 1\.6$"
        ):
            FleetConfig(deadline_trim=1.6)


class TestSpecParsing:
    def test_defaults(self):
        templates, config = fleet_spec_from_dict({})
        assert [t.name for t in templates] == ["A", "C"]
        assert config.model_mode == "ewma"
        assert config.days == 5

    def test_full_spec(self):
        templates, config = fleet_spec_from_dict({
            "templates": ["B", {"name": "etl", "job": "mapreduce"}],
            "days": 4,
            "mode": "latest",
            "drift": {"day": 2, "factor": 1.8, "stages": ["map"]},
            "seed": 7,
            "scale": "smoke",
        })
        assert templates[1].job_name() == "mapreduce"
        assert config.model_mode == "latest"
        assert config.drift.at == 2.0
        assert config.drift.stages == ("map",)
        assert config.seed == 7

    @pytest.mark.parametrize("bad", [
        {"bogus": 1},
        {"templates": []},
        {"templates": [42]},
        {"templates": [{"job": "A"}]},
        {"drift": "tomorrow"},
        {"drift": {"when": 3}},
        {"scale": "galactic"},
        {"days": "many"},
        {"mode": "clairvoyant"},
        {"mode": "window"},
    ])
    def test_malformed_specs_raise_spec_error(self, bad):
        with pytest.raises(FleetSpecError):
            fleet_spec_from_dict(bad)

    def test_spec_error_is_a_fleet_error(self):
        assert issubclass(FleetSpecError, FleetError)

    def test_load_with_envelope(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            '{"format_version": 1, "fleet": {"templates": ["A"], "days": 2}}',
            encoding="utf-8",
        )
        templates, config = load_fleet_spec(path)
        assert [t.name for t in templates] == ["A"]
        assert config.days == 2

    def test_load_bad_version(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            '{"format_version": 99, "fleet": {}}', encoding="utf-8"
        )
        with pytest.raises(FleetSpecError, match="version"):
            load_fleet_spec(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FleetSpecError, match="cannot read"):
            load_fleet_spec(tmp_path / "ghost.json")
