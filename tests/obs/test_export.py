"""Exporters: JSONL span dump, Chrome trace_event timeline, Prometheus."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from repro.obs import spans as sp
from repro.obs.export import (
    chrome_trace_events,
    metrics_to_prometheus,
    parse_prometheus_text,
    read_spans_jsonl,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span


def sample_spans():
    return [
        Span(sp.ARRIVAL, 0.0, 0, {"deadline": 1.0}),
        Span(sp.ENTER_BUFFER, 0.0, 0, {"depth": 1}),
        Span(sp.SCHEDULE, 0.0, -1, {
            "batch": 1, "depth": 0, "work_units": 4,
            "overhead_sim_s": 0.001, "wall_s": 0.0005,
        }),
        Span(sp.COMMIT, 0.001, -1, {"decisions": 1}),
        Span(sp.DISPATCH, 0.001, 0, {
            "model": 2, "worker": 5, "start": 0.001, "finish": 0.101,
        }),
        Span(sp.TASK_DONE, 0.101, 0, {"model": 2}),
        Span(sp.COMPLETE, 0.101, 0, {"latency": 0.101, "slack": 0.899}),
    ]


def fault_mode_spans():
    """Spans a fault-injected, SLO-monitored, explained run adds."""
    return sample_spans() + [
        Span(sp.WORKER_DOWN, 0.05, -1, {"worker": 5, "until": 0.25}),
        Span(sp.TASK_FAILED, 0.06, 0, {"model": 2, "reason": "crash"}),
        Span(sp.RETRY, 0.06, 0, {"model": 2, "attempt": 1}),
        Span(sp.SLO_BREACH, 0.07, -1, {
            "window": 5.0, "burn_rate": 2.0, "miss_rate": 0.1,
        }),
        Span(sp.SLO_RECOVERED, 0.3, -1, {
            "window": 5.0, "burn_rate": 0.5, "miss_rate": 0.02,
            "duration": 0.23,
        }),
    ]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = write_spans_jsonl(sample_spans(), tmp_path / "spans.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7
        first = json.loads(lines[0])
        assert first == {"kind": "arrival", "time": 0.0, "query_id": 0,
                         "deadline": 1.0}
        # Run-level spans omit the -1 query_id.
        sched = json.loads(lines[2])
        assert "query_id" not in sched
        assert sched["wall_s"] == 0.0005

    def test_read_back_equality(self, tmp_path):
        spans = fault_mode_spans()
        path = write_spans_jsonl(spans, tmp_path / "spans.jsonl")
        assert read_spans_jsonl(path) == spans

    def test_read_back_skips_blank_lines(self, tmp_path):
        path = write_spans_jsonl(sample_spans(), tmp_path / "spans.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert read_spans_jsonl(path) == sample_spans()

    def test_write_creates_parent_dirs(self, tmp_path):
        path = write_spans_jsonl(
            sample_spans(), tmp_path / "a" / "b" / "spans.jsonl"
        )
        assert path.exists()


class TestChromeTrace:
    def test_task_boxes_on_worker_lanes(self):
        events = chrome_trace_events(sample_spans())
        tasks = [e for e in events if e["ph"] == "X" and e["cat"] == "task"]
        assert len(tasks) == 1
        task = tasks[0]
        assert task["tid"] == 5
        assert task["ts"] == 0.001 * 1e6
        assert task["dur"] == (0.101 - 0.001) * 1e6
        assert task["name"] == "q0 m2"

    def test_scheduler_lane_and_counter(self):
        events = chrome_trace_events(sample_spans())
        sched = [e for e in events
                 if e["ph"] == "X" and e["cat"] == "scheduler"]
        assert len(sched) == 1
        assert sched[0]["tid"] == 6  # one past the max worker id
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["args"]["depth"] for c in counters] == [1.0, 0.0]

    def test_thread_names(self):
        events = chrome_trace_events(sample_spans())
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[5] == "worker 5 (model 2)"
        assert names[6] == "scheduler"
        assert "lifecycle" in names[7]

    def test_worker_name_override(self):
        events = chrome_trace_events(
            sample_spans(), worker_names={5: "gpu-0"}
        )
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "gpu-0" in names

    def test_file_is_loadable_json(self, tmp_path):
        path = write_chrome_trace(sample_spans(), tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert payload["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_empty_spans(self):
        events = chrome_trace_events([])
        # Metadata only; no crash on traces with no dispatches.
        assert all(e["ph"] == "M" for e in events)

    def test_worker_down_box(self):
        events = chrome_trace_events(fault_mode_spans())
        down = [e for e in events
                if e["ph"] == "X" and e["cat"] == "fault"]
        assert len(down) == 1
        box = down[0]
        assert box["name"] == "DOWN"
        assert box["tid"] == 5  # the downed worker's own lane
        assert box["ts"] == pytest.approx(0.05 * 1e6)
        assert box["dur"] == pytest.approx((0.25 - 0.05) * 1e6)

    def test_slo_events_render_as_instants(self):
        events = chrome_trace_events(fault_mode_spans())
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert sp.SLO_BREACH in instants
        assert sp.SLO_RECOVERED in instants

    def test_trace_event_schema_invariants(self):
        # The subset of the trace_event format the viewers require:
        # every event names its phase/pid, duration events carry a
        # non-negative dur, instants carry a scope, counters carry
        # numeric args. Violations render as a blank Perfetto track.
        events = chrome_trace_events(fault_mode_spans())
        assert events, "no events generated"
        for event in events:
            assert event["ph"] in {"M", "X", "i", "C"}
            assert isinstance(event["pid"], int)
            assert isinstance(event["name"], str) and event["name"]
            if event["ph"] in {"X", "i", "C"}:
                assert event["ts"] >= 0.0
            if event["ph"] == "X":
                assert event["dur"] > 0.0
                assert isinstance(event["tid"], int)
            if event["ph"] == "i":
                assert event["s"] in {"g", "p", "t"}
            if event["ph"] == "C":
                assert all(
                    isinstance(v, (int, float))
                    for v in event["args"].values()
                )
        assert json.dumps(events)  # the payload must be serializable


class TestPrometheus:
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("queries.completed").inc(12)
        reg.gauge("buffer.depth").sample(0.5, 3)
        hist = reg.histogram("query.latency_s")
        for v in range(100):
            hist.add(v / 100.0)
        return reg

    def test_families_and_types(self):
        text = metrics_to_prometheus(self.registry())
        assert "# TYPE repro_queries_completed counter" in text
        assert "repro_queries_completed 12.0" in text
        assert "# TYPE repro_buffer_depth gauge" in text
        assert "repro_buffer_depth 3.0" in text
        assert "# TYPE repro_query_latency_s summary" in text
        assert 'repro_query_latency_s{quantile="0.5"}' in text
        assert "repro_query_latency_s_count 100" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("tasks.failed.crash").inc()
        text = metrics_to_prometheus(reg)
        assert "repro_tasks_failed_crash 1.0" in text
        # Exposition names: [a-zA-Z_][a-zA-Z0-9_]* — no dots survive.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert "." not in name and name.startswith("repro_")

    def test_empty_histogram_is_nan(self):
        reg = MetricsRegistry()
        reg.histogram("query.latency_s")
        text = metrics_to_prometheus(reg)
        assert 'quantile="0.5"} NaN' in text
        assert "repro_query_latency_s_count 0" in text

    def test_write_creates_parent_dirs(self, tmp_path):
        path = write_prometheus(
            self.registry(), tmp_path / "out" / "metrics.prom"
        )
        content = path.read_text()
        assert "repro_queries_completed" in content
        quantile_line = next(
            line for line in content.splitlines()
            if 'quantile="0.99"' in line
        )
        value = float(quantile_line.rsplit(" ", 1)[1])
        assert math.isclose(value, 0.99, abs_tol=0.05)

    def test_deterministic_sorted_order(self):
        # Two registries populated in opposite insertion order must
        # render byte-identically: families come out name-sorted.
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            fwd.counter(name).inc(1)
        for name in ("m.middle", "a.first", "z.last"):
            rev.counter(name).inc(1)
        assert metrics_to_prometheus(fwd) == metrics_to_prometheus(rev)
        names = [
            line.split(" ")[0]
            for line in metrics_to_prometheus(fwd).splitlines()
            if not line.startswith("#")
        ]
        assert names == sorted(names)

    def test_roundtrip_through_parser(self):
        samples = parse_prometheus_text(
            metrics_to_prometheus(self.registry())
        )
        assert samples["repro_queries_completed"][()] == 12.0
        assert samples["repro_buffer_depth"][()] == 3.0
        latency = samples["repro_query_latency_s"]
        assert latency[(("quantile", "0.5"),)] == pytest.approx(
            0.5, abs=0.05
        )
        assert samples["repro_query_latency_s_count"][()] == 100.0
        assert samples["repro_query_latency_s_sum"][()] == pytest.approx(
            sum(v / 100.0 for v in range(100))
        )

    def test_rendering_never_steers_the_registry(self):
        # A /metrics scrape renders the serving tracer's registry mid-run:
        # a registry rendered every 300 adds ends exactly as its twin
        # that was never rendered.
        values = np.random.default_rng(7).lognormal(-4.0, 0.6, 5000)
        scraped, quiet = MetricsRegistry(), MetricsRegistry()
        for i, value in enumerate(values):
            for registry in (scraped, quiet):
                registry.histogram("query.latency_s").add(value)
            if i % 300 == 299:
                metrics_to_prometheus(scraped)
        assert (
            scraped.histogram("query.latency_s").checkpoint()
            == quiet.histogram("query.latency_s").checkpoint()
        )
        assert metrics_to_prometheus(scraped) == metrics_to_prometheus(quiet)

    def test_a_scrape_racing_the_run_never_steers_it(self):
        # The /metrics thread renders while the serving thread adds.
        values = np.random.default_rng(9).lognormal(-4.0, 0.6, 20_000)
        scraped, quiet = MetricsRegistry(), MetricsRegistry()
        hist = scraped.histogram("query.latency_s")
        done = threading.Event()
        scrapes = []

        def scrape():
            while not done.is_set():
                scrapes.append(metrics_to_prometheus(scraped))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        scraper = threading.Thread(target=scrape)
        try:
            scraper.start()
            for value in values:
                hist.add(value)
        finally:
            done.set()
            scraper.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not scraper.is_alive() and scrapes
        twin = quiet.histogram("query.latency_s")
        for value in values:
            twin.add(value)
        assert hist.checkpoint() == twin.checkpoint()

    def test_quantiles_read_as_if_the_digest_were_compressed(self):
        registry = MetricsRegistry()
        hist = registry.histogram("query.latency_s")
        for value in np.random.default_rng(8).lognormal(-4.0, 0.6, 2500):
            hist.add(value)
        text = metrics_to_prometheus(registry)
        for q in (0.5, 0.95, 0.99):
            expected = f'{{quantile="{q}"}} {hist.quantile(q)!r}'
            assert expected in text

    def test_label_escaping_roundtrip(self):
        nasty = 'a\\b"c\nd'
        line = f'metric{{label="{_escape(nasty)}"}} 1.0\n'
        samples = parse_prometheus_text(line)
        assert samples["metric"][(("label", nasty),)] == 1.0

    def test_parse_special_values_and_errors(self):
        text = "m_nan NaN\nm_inf +Inf\nm_neg -Inf\n"
        samples = parse_prometheus_text(text)
        assert math.isnan(samples["m_nan"][()])
        assert samples["m_inf"][()] == math.inf
        assert samples["m_neg"][()] == -math.inf
        with pytest.raises(ValueError):
            parse_prometheus_text("not a valid !! line\n")


def _escape(value: str) -> str:
    from repro.obs.export import _prom_label_value

    return _prom_label_value(value)
