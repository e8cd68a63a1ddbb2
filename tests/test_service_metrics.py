"""Tests for live service telemetry: the labelled registry + /metrics.

Unit tests pin the labelled :class:`MetricsRegistry` as the service uses
it (label sets group under one family, kind conflicts fail loudly,
label values never collide, child exports merge by ``(name, labels)``),
rendered through :func:`render_registry`; the integration class drives
the full scrape loop: a running server, a verification-FAILed job, a
cache hit, scrapes mid-run and after, all strict-parsed with
:func:`parse_exposition`.
"""

import time

import pytest

from repro.benchgen import load_tiny
from repro.io import design_to_dict
from repro.obs import MetricsRegistry, render_registry
from repro.obs.openmetrics import parse_exposition
from repro.service import (
    FloorplanService,
    JobManager,
    OPENMETRICS_CONTENT_TYPE,
    ServiceClient,
    ServiceError,
)
from repro.validate import faults

# The route templates the request metrics may label an endpoint with.
KNOWN_ENDPOINTS = {
    "/healthz", "/jobs", "/metrics", "/stats", "/jobs/{id}",
    "/jobs/{id}/cancel", "/jobs/{id}/dashboard", "/jobs/{id}/events",
    "/jobs/{id}/profile", "/jobs/{id}/report", "/jobs/{id}/result",
    "other",
}


def sample_value(families, family, suffix="", **labels):
    """The value of one exposed sample, or None when absent."""
    fam = families.get(family)
    if fam is None:
        return None
    want = {k: str(v) for k, v in labels.items()}
    for name, lbls, value in fam["samples"]:
        if name == family + suffix and lbls == want:
            return value
    return None


class TestServiceMetricsUnit:
    def test_labelled_cells_group_under_one_family(self):
        metrics = MetricsRegistry()
        metrics.counter("http.requests", {"status": "200"}).inc(3)
        metrics.counter("http.requests", {"status": "404"}).inc()
        text = render_registry(metrics)
        assert text.count("# TYPE repro_http_requests counter") == 1
        assert text.count("# HELP repro_http_requests ") == 1
        families = parse_exposition(text)
        assert sample_value(
            families, "repro_http_requests", "_total", status="200"
        ) == 3.0
        assert sample_value(
            families, "repro_http_requests", "_total", status="404"
        ) == 1.0

    def test_same_labels_return_the_same_instrument(self):
        metrics = MetricsRegistry()
        a = metrics.gauge("service.queue.depth", {"q": "main", "p": 1})
        b = metrics.gauge("service.queue.depth", {"p": "1", "q": "main"})
        assert a is b
        assert a is not metrics.gauge("service.queue.depth")

    def test_kind_conflict_rejected(self):
        metrics = MetricsRegistry()
        metrics.counter("service.jobs.submitted")
        with pytest.raises(TypeError, match="already registered"):
            metrics.gauge("service.jobs.submitted")
        metrics.counter("http.requests", {"status": "200"})
        with pytest.raises(TypeError, match="already registered"):
            metrics.histogram("http.requests", {"status": "500"})

    def test_label_values_never_collide(self):
        # A label value that looks like an encoded label list is data,
        # not syntax: the two label sets stay two cells.
        metrics = MetricsRegistry()
        metrics.counter("probe", {"a": 'x",b="y'}).inc(1)
        metrics.counter("probe", {"a": "x", "b": "y"}).inc(5)
        families = parse_exposition(render_registry(metrics))
        assert {
            tuple(sorted(labels.items())): value
            for _, labels, value in families["repro_probe"]["samples"]
        } == {
            (("a", "x"), ("b", "y")): 5.0,
            (("a", 'x",b="y'),): 1.0,
        }

    def test_labelled_histogram_renders_per_label_buckets(self):
        metrics = MetricsRegistry()
        metrics.histogram("http.request_seconds", {"m": "GET"}).observe(0.01)
        metrics.histogram("http.request_seconds", {"m": "POST"}).observe(2.0)
        families = parse_exposition(render_registry(metrics))
        fam = families["repro_http_request_seconds"]
        assert fam["type"] == "histogram"
        assert sample_value(
            families, "repro_http_request_seconds", "_count", m="GET"
        ) == 1.0
        assert sample_value(
            families, "repro_http_request_seconds", "_bucket",
            m="GET", le="+Inf",
        ) == 1.0
        assert sample_value(
            families, "repro_http_request_seconds", "_bucket",
            m="POST", le="1",
        ) == 0.0
        assert sample_value(
            families, "repro_http_request_seconds", "_bucket",
            m="POST", le="2.5",
        ) == 1.0

    def test_discard_retires_a_cell(self):
        metrics = MetricsRegistry()
        metrics.gauge("job.rss_bytes", {"job": "a1"}).set(42.0)
        metrics.gauge("job.rss_bytes", {"job": "b2"}).set(7.0)
        metrics.discard("job.rss_bytes", {"job": "a1"})
        families = parse_exposition(render_registry(metrics))
        assert sample_value(families, "repro_job_rss_bytes", job="a1") is None
        assert sample_value(families, "repro_job_rss_bytes", job="b2") == 7.0
        metrics.discard("job.rss_bytes", {"job": "b2"})
        assert "repro_job_rss_bytes" not in parse_exposition(
            render_registry(metrics)
        )

    def test_merge_child_folds_plain_names(self):
        metrics = MetricsRegistry()
        metrics.counter("http.requests", {"status": "200"}).inc()
        for amount in (5, 2):
            child = MetricsRegistry()
            child.counter("floorplan.efa.expanded").inc(amount)
            metrics.merge_export(child.export())
        families = parse_exposition(render_registry(metrics))
        assert sample_value(
            families, "repro_floorplan_efa_expanded", "_total"
        ) == 7.0
        assert sample_value(
            families, "repro_http_requests", "_total", status="200"
        ) == 1.0

    def test_labelled_export_merge_render_round_trip(self):
        source = MetricsRegistry()
        source.counter("http.requests", {"status": "200"}).inc(2)
        source.counter("http.requests", {"status": "404"}).inc()
        source.gauge("service.jobs.state", {"state": "done"}).set(4)
        source.histogram("http.request_seconds", {"m": "GET"}).observe(0.3)
        source.histogram("service.job.run_seconds").observe(1.5)
        source.counter("floorplan.efa.pruned_illegal").inc(9)
        exported = source.export()
        # Label-free families keep the flat entry shape.
        assert exported["floorplan.efa.pruned_illegal"] == {
            "type": "counter", "value": 9,
        }
        assert exported["http.requests"]["series"] == [
            {"labels": {"status": "200"}, "value": 2},
            {"labels": {"status": "404"}, "value": 1},
        ]
        target = MetricsRegistry()
        target.merge_export(exported)
        assert target.export() == exported
        assert render_registry(target) == render_registry(source)
        target.merge_export(exported)
        families = parse_exposition(render_registry(target))
        assert sample_value(
            families, "repro_http_requests", "_total", status="200"
        ) == 4.0
        assert sample_value(
            families, "repro_http_request_seconds", "_count", m="GET"
        ) == 2.0
        assert sample_value(
            families, "repro_service_jobs_state", state="done"
        ) == 4.0

    def test_uptime_monotone(self, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            first = manager.stats()["uptime_s"]
            assert first >= 0.0
            time.sleep(0.01)
            assert manager.stats()["uptime_s"] >= first
        finally:
            manager.shutdown()

    def test_late_resource_sample_does_not_revive_gauges(self, tmp_path):
        # The sampler can fire after a job went terminal (or for an id
        # the manager never knew); neither may create per-job gauges.
        manager = JobManager(tmp_path, max_workers=1)
        try:
            manager._on_resource_sample(
                "gone",
                {"cpu_percent": 1.0, "rss_bytes": 1 << 20,
                 "cpu_time_s": 0.1},
            )
            families = parse_exposition(manager.render_metrics())
            assert "repro_job_rss_bytes" not in families
            assert "repro_job_cpu_percent" not in families
        finally:
            manager.shutdown()


@pytest.fixture(scope="module")
def design_dict():
    return design_to_dict(load_tiny(die_count=4, signal_count=16))


class TestScrapeLoop:
    """The full loop: server up, jobs through, /metrics strict-parsed."""

    @pytest.fixture()
    def service(self, tmp_path):
        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            yield svc

    @pytest.fixture()
    def client(self, service):
        return ServiceClient(service.url)

    def scrape(self, client):
        text = client.metrics()
        return text, parse_exposition(text)

    def test_scrape_through_job_lifecycle(
        self, service, client, design_dict, monkeypatch
    ):
        # --- mid-flight scrape: a job that will FAIL verification -------
        monkeypatch.setenv(faults.FAULTS_ENV, "verify_tamper:1")
        faults.reset()  # parent re-reads env; child inherits it at spawn
        failing = client.submit(design_dict)
        text, families = self.scrape(client)  # mid-run: must still parse
        assert "# EOF" in text
        queued_or_running = sum(
            sample_value(
                families, "repro_service_jobs_state", state=state
            ) or 0.0
            for state in ("queued", "running")
        )
        assert queued_or_running + (
            sample_value(families, "repro_service_jobs_state", state="failed")
            or 0.0
        ) >= 1.0
        assert sample_value(
            families, "repro_service_jobs_submitted", "_total"
        ) == 1.0
        # First submission looked up the cache and missed.
        assert sample_value(
            families, "repro_service_cache_misses", "_total"
        ) == 1.0

        final = client.wait(failing["id"], timeout_s=120)
        assert final["state"] == "FAILED"
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.reset()

        _, families = self.scrape(client)
        assert sample_value(
            families, "repro_service_jobs_state", state="failed"
        ) == 1.0
        assert sample_value(
            families, "repro_service_jobs_state", state="running"
        ) == 0.0

        # --- clean run, then a cache hit ---------------------------------
        done = client.submit(design_dict)
        assert client.wait(done["id"], timeout_s=120)["state"] == "DONE"
        hit = client.submit(design_dict)
        assert hit["cached"] is True

        text, families = self.scrape(client)
        assert sample_value(
            families, "repro_service_jobs_state", state="done"
        ) == 2.0
        assert sample_value(
            families, "repro_service_jobs_state", state="failed"
        ) == 1.0
        assert sample_value(
            families, "repro_service_jobs_submitted", "_total"
        ) == 3.0
        assert sample_value(
            families, "repro_service_cache_hits", "_total"
        ) == 1.0
        # Tampered results never reach the cache: 3 lookups, 1 hit.
        assert sample_value(
            families, "repro_service_cache_misses", "_total"
        ) == 2.0
        assert sample_value(
            families, "repro_service_cache_entries"
        ) == 1.0
        assert (
            sample_value(families, "repro_service_uptime_seconds") or 0.0
        ) >= 0.0
        assert sample_value(families, "repro_service_queue_depth") == 0.0

        # SLO histograms: both completed jobs observed a run duration,
        # the cache hit did not (no search process ran).
        assert sample_value(
            families, "repro_service_job_run_seconds", "_count"
        ) == 2.0
        assert sample_value(
            families, "repro_service_job_queue_wait_seconds", "_count"
        ) == 2.0

        # HTTP middleware counted this very scrape under its template.
        assert (
            sample_value(
                families, "repro_http_requests", "_total",
                method="GET", endpoint="/metrics", status="200",
            )
            or 0.0
        ) >= 2.0
        assert (
            sample_value(
                families, "repro_http_request_seconds", "_count",
                method="GET", endpoint="/metrics",
            )
            or 0.0
        ) >= 2.0

        # Child solver metrics merged over the event queue: the flow's
        # own counters surface in the same exposition.
        assert any(name.startswith("repro_floorplan_") for name in families)

    def test_content_type_and_strictness(self, service, client):
        import urllib.request

        req = urllib.request.Request(service.url + "/api/v1/metrics")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
            text = resp.read().decode("utf-8")
        assert text.endswith("# EOF\n")
        parse_exposition(text)  # strict: raises on malformed output

    def test_unknown_paths_share_the_other_endpoint(self, service, client):
        import urllib.error
        import urllib.request

        paths = (
            [f"/api/v1/nope{i}" for i in range(20)]
            + [f"/api/v1/jobs/x{i}/bogus{i}" for i in range(20)]
            + [f"/api/v1/stats/extra{i}" for i in range(5)]
            + [f"/elsewhere{i}" for i in range(5)]
        )
        for path in paths:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(service.url + path, timeout=10)
            assert err.value.code == 404
        # A request is counted just after its response is written, so
        # give the last one a moment to land.
        deadline = time.monotonic() + 10
        while True:
            families = parse_exposition(client.metrics())
            others = sample_value(
                families, "repro_http_requests", "_total",
                method="GET", endpoint="other", status="404",
            )
            if others == len(paths) or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert others == len(paths)
        endpoints = {
            labels["endpoint"]
            for _, labels, _ in families["repro_http_requests"]["samples"]
        }
        assert endpoints <= KNOWN_ENDPOINTS

    def test_resource_gauges_appear_and_retire(
        self, tmp_path, design_dict, monkeypatch
    ):
        from repro.obs import resources

        if not resources.supported():
            pytest.skip("requires a mounted /proc")
        # Sample fast enough to catch the short flow child.
        monkeypatch.setenv(resources.SAMPLE_ENV, "0.05")
        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            client = ServiceClient(svc.url)
            view = client.submit(design_dict)
            saw_gauge = False
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                families = parse_exposition(client.metrics())
                if sample_value(
                    families, "repro_job_rss_bytes", job=view["id"]
                ):
                    saw_gauge = True
                    break
                if client.status(view["id"])["state"] in (
                    "DONE", "FAILED", "CANCELLED",
                ):
                    break
                time.sleep(0.02)
            final = client.wait(view["id"], timeout_s=120)
            assert final["state"] == "DONE"
            assert saw_gauge, "no resource gauge observed while RUNNING"

            # Terminal: the per-job gauges retire from the exposition.
            families = parse_exposition(client.metrics())
            assert sample_value(
                families, "repro_job_rss_bytes", job=view["id"]
            ) is None

            # The event stream carries resource samples...
            events = [
                e
                for e in client.stream_events(view["id"])
                if e["type"] == "resources"
            ]
            assert events
            assert events[0]["rss_bytes"] > 1 << 20
            assert events[0]["cpu_percent"] >= 0.0

            # ...and the report carries the sampler peaks.
            report = client.report(view["id"])
            sampler = report["resources"]["sampler"]
            assert sampler["peak_rss_bytes"] >= events[0]["rss_bytes"]
            assert sampler["cpu_time_s"] >= 0.0


class TestStatsRoundTrip:
    def test_stats_gains_telemetry_fields(self, tmp_path, design_dict):
        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            client = ServiceClient(svc.url)
            stats = client.stats()
            assert stats["queue_depth"] == 0
            assert stats["uptime_s"] >= 0.0
            assert stats["cache_hit_ratio"] is None  # no lookups yet

            view = client.submit(design_dict)
            assert client.wait(view["id"], timeout_s=120)["state"] == "DONE"
            again = client.submit(design_dict)
            assert again["cached"] is True
            stats = client.stats()
            assert stats["cache_hit_ratio"] == 0.5
            assert stats["cache"]["hit_ratio"] == 0.5
            assert stats["jobs"] == {"DONE": 2}


class TestProfileEndpoint:
    def test_submitted_profile_round_trips(self, tmp_path, design_dict):
        import json

        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            client = ServiceClient(svc.url)
            view = client.submit(design_dict, profile="speedscope")
            assert client.wait(view["id"], timeout_s=120)["state"] == "DONE"
            doc = json.loads(client.profile(view["id"]))
            assert doc["$schema"].endswith("file-format-schema.json")
            assert doc["profiles"][0]["type"] == "sampled"
            report = client.report(view["id"])
            prof = report["profile"]
            assert prof["format"] == "speedscope"
            assert prof["samples"] >= 0
            assert isinstance(prof["hotspots"], list)

    def test_unprofiled_job_409s(self, tmp_path, design_dict):
        # Same LookupError -> 409 mapping as result-before-done: the job
        # exists, it just was not submitted with profiling.
        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            client = ServiceClient(svc.url)
            view = client.submit(design_dict)
            assert client.wait(view["id"], timeout_s=120)["state"] == "DONE"
            with pytest.raises(ServiceError) as err:
                client.profile(view["id"])
            assert err.value.status == 409

    def test_bad_profile_format_rejected(self, tmp_path, design_dict):
        with FloorplanService(
            tmp_path, port=0, max_workers=1, metrics=MetricsRegistry()
        ) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as err:
                client.submit(design_dict, profile="flamegraph")
            assert err.value.status == 400
