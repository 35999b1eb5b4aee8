"""Tests for Prometheus text exposition and the one server that serves
it: the live arbiter's ``/metrics`` (``repro serve``)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ClusterService, ServiceConfig
from repro.telemetry.exposition import (
    ExpositionError,
    parse_prometheus,
    render_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry


def populated_registry():
    reg = MetricsRegistry()
    c = reg.counter("repro_test_tasks_total", "Tasks seen",
                    labelnames=("outcome",))
    c.labels(outcome="ok").inc(3)
    c.labels(outcome="failed").inc()
    reg.gauge("repro_test_tokens", "Current tokens").set(42)
    h = reg.histogram("repro_test_seconds", "Durations",
                      buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    return reg


class TestRender:
    def test_help_and_type_lines(self):
        text = render_prometheus(populated_registry())
        assert "# HELP repro_test_tasks_total Tasks seen\n" in text
        assert "# TYPE repro_test_tasks_total counter\n" in text
        assert "# TYPE repro_test_tokens gauge\n" in text
        assert "# TYPE repro_test_seconds histogram\n" in text

    def test_labelled_samples(self):
        text = render_prometheus(populated_registry())
        assert 'repro_test_tasks_total{outcome="failed"} 1\n' in text
        assert 'repro_test_tasks_total{outcome="ok"} 3\n' in text

    def test_histogram_cumulative_buckets_and_inf(self):
        text = render_prometheus(populated_registry())
        assert 'repro_test_seconds_bucket{le="1.0"} 1\n' in text
        assert 'repro_test_seconds_bucket{le="10.0"} 2\n' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_test_seconds_sum 55.5\n" in text
        assert "repro_test_seconds_count 3\n" in text

    def test_deterministic_across_creation_orders(self):
        a = populated_registry()
        # Same instruments, registered and labelled in reverse order.
        b = MetricsRegistry()
        h = b.histogram("repro_test_seconds", "Durations", buckets=(1.0, 10.0))
        b.gauge("repro_test_tokens", "Current tokens").set(42)
        c = b.counter("repro_test_tasks_total", "Tasks seen",
                      labelnames=("outcome",))
        c.labels(outcome="failed").inc()
        c.labels(outcome="ok").inc(3)
        for v in (50.0, 5.0, 0.5):
            h.observe(v)
        assert render_prometheus(a) == render_prometheus(b)

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", labelnames=("path",))
        c.labels(path='a"b\\c\nd').inc()
        text = render_prometheus(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_integral_floats_render_without_point(self):
        reg = MetricsRegistry()
        reg.gauge("repro_test_g").set(7.0)
        assert "repro_test_g 7\n" in render_prometheus(reg)


class TestParse:
    def test_roundtrip(self):
        samples = parse_prometheus(render_prometheus(populated_registry()))
        assert samples["repro_test_tokens"][""] == 42
        assert samples["repro_test_tasks_total"]['outcome="ok"'] == 3
        assert samples["repro_test_seconds_bucket"]['le="+Inf"'] == 3
        assert samples["repro_test_seconds_count"][""] == 3

    def test_bad_line_rejected_with_line_number(self):
        with pytest.raises(ExpositionError) as err:
            parse_prometheus("repro_good 1\nthis is { not valid\n")
        assert "line 2" in str(err.value)

    def test_bad_value_rejected(self):
        with pytest.raises(ExpositionError):
            parse_prometheus("repro_x notanumber\n")


def scrape(service):
    with urllib.request.urlopen(service.url + "/metrics") as resp:
        return parse_prometheus(resp.read().decode("utf-8"))


class TestServer:
    """``/metrics`` has one server, the arbiter; it serves the process
    registry in the format the strict parser accepts."""

    @pytest.fixture
    def service(self):
        with ClusterService(ServiceConfig()) as svc:
            yield svc

    def test_serves_metrics_and_health(self, service):
        with urllib.request.urlopen(service.url + "/metrics") as resp:
            # What Prometheus scrapers expect for text format 0.0.4.
            assert resp.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            body = resp.read().decode("utf-8")
        assert "repro_service_requests_total" in parse_prometheus(body)

        with urllib.request.urlopen(service.url + "/healthz") as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"

    def test_scrapes_see_live_updates(self, service):
        def scrapes_served():
            return scrape(service)["repro_service_requests_total"][
                'endpoint="/metrics"'
            ]

        first = scrapes_served()
        assert scrapes_served() == first + 1

    def test_unknown_path_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(service.url + "/nope")
        assert err.value.code == 404

    def test_stop_closes_port(self):
        service = ClusterService(ServiceConfig())
        service.start()
        url = service.url
        service.stop(drain=False)
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=0.5)


class TestSnapshotDeterminism:
    def test_json_snapshot_identical_across_orders(self):
        a = populated_registry()
        b = MetricsRegistry()
        b.gauge("repro_test_tokens", "Current tokens").set(42)
        c = b.counter("repro_test_tasks_total", "Tasks seen",
                      labelnames=("outcome",))
        c.labels(outcome="failed").inc()
        c.labels(outcome="ok").inc(3)
        h = b.histogram("repro_test_seconds", "Durations", buckets=(1.0, 10.0))
        for v in (50.0, 0.5, 5.0):
            h.observe(v)
        assert json.dumps(a.snapshot(), sort_keys=True) == json.dumps(
            b.snapshot(), sort_keys=True
        )


class TestPredictionGauges:
    """The prediction observatory's module-level instruments land on the
    default registry and survive a render -> parse round trip."""

    def publish_and_score(self, predictor):
        from repro.telemetry import predict
        from repro.telemetry.audit import TickRecord
        from repro.telemetry.metrics import REGISTRY

        median, bands = predict.bands_from_quantiles(
            60.0,
            {
                q: 300.0 + 100.0 * (2.0 * q - 1.0)
                for q in predict.quantiles_for(predict.NOMINAL_LEVELS)
            },
        )
        record = TickRecord(
            tick=0, phase="tick", elapsed=60.0, progress=0.5, candidates=(),
            raw=10, dead_zone_triggered=False, prev_smoothed=None,
            smoothed=10.0, allocation=10, predicted_remaining=300.0,
            utility=1.0, slack=1.0, median=median, bands=bands,
        )
        predict.publish(record, predictor=predictor)
        predict.calibration([([record], 360.0)], predictor=predictor)
        return record, REGISTRY

    def sample(self, parsed, metric, predictor, level=None):
        wanted = [f'predictor="{predictor}"']
        if level is not None:
            wanted.append(f'level="{level}"')
        matches = [
            value for labels, value in parsed[metric].items()
            if all(w in labels for w in wanted)
        ]
        assert len(matches) == 1, (metric, wanted, parsed[metric])
        return matches[0]

    def test_roundtrip_includes_prediction_metrics(self):
        record, registry = self.publish_and_score("exposition-test")
        parsed = parse_prometheus(render_prometheus(registry))
        for metric in (
            "repro_prediction_interval_lo_seconds",
            "repro_prediction_interval_hi_seconds",
            "repro_prediction_median_seconds",
            "repro_prediction_coverage",
            "repro_prediction_ticks_total",
        ):
            assert metric in parsed, metric

        band = record.band(0.9)
        lo = self.sample(parsed, "repro_prediction_interval_lo_seconds",
                         "exposition-test", level="90")
        hi = self.sample(parsed, "repro_prediction_interval_hi_seconds",
                         "exposition-test", level="90")
        assert lo == pytest.approx(band.lo)
        assert hi == pytest.approx(band.hi)
        median = self.sample(parsed, "repro_prediction_median_seconds",
                             "exposition-test")
        assert median == pytest.approx(record.median)

    def test_scoring_sets_coverage_per_level(self):
        _record, registry = self.publish_and_score("exposition-cov")
        parsed = parse_prometheus(render_prometheus(registry))
        # The single record's 90% band covers the realized 360s.
        coverage = self.sample(parsed, "repro_prediction_coverage",
                               "exposition-cov", level="90")
        assert coverage == 1

    def test_served_metrics_expose_prediction_bands(self):
        self.publish_and_score("exposition-served")
        with ClusterService(ServiceConfig()) as service:
            parsed = scrape(service)
        assert self.sample(
            parsed, "repro_prediction_ticks_total", "exposition-served"
        ) >= 1
