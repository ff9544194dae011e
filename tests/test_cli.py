"""CLI surface tests (fast commands only; the heavy ones are smoke-run
via the sweep command at tiny duration)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--task", "speech"])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.task == "text_matching"
        assert args.preset == "small"

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.rates == "0,0.05,0.15,0.3"
        assert args.policy == "schemble"
        assert args.retries == 2
        assert args.jitter == 0.0
        assert args.crash_rate == 0.0
        assert args.timeout is None

    def test_trace_fault_flags(self):
        args = build_parser().parse_args([
            "trace", "--failure-rate", "0.2", "--jitter", "0.1",
            "--no-degraded", "--fault-seed", "3", "--timeout", "0.5",
        ])
        assert args.failure_rate == 0.2
        assert args.jitter == 0.1
        assert args.no_degraded
        assert args.fault_seed == 3
        assert args.timeout == 0.5

    def test_slo_flags_on_trace_and_faults(self):
        for command in ("trace", "faults"):
            args = build_parser().parse_args([
                command, "--slo-target", "0.05", "--slo-window", "4",
            ])
            assert args.slo_target == 0.05
            assert args.slo_window == 4.0
        # Off by default: no monitor unless asked for.
        assert build_parser().parse_args(["trace"]).slo_target is None

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.shards == 4
        assert args.router == "power_of_two"
        assert args.queue_limit == 64
        assert args.control is False
        assert args.out is None

    def test_fleet_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--router", "round_robin"])

    def test_control_defaults(self):
        # The control loop is a flag on `fleet`, not its own command.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["control"])
        args = build_parser().parse_args(["fleet", "--control"])
        assert args.control is True
        assert args.shards == 4
        assert args.router == "power_of_two"
        assert args.interval == 1.0
        assert args.warmup == 2.0
        assert args.max_extra == 4
        assert args.out is None

    def test_explain_requires_decisions_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "3"])
        args = build_parser().parse_args(
            ["explain", "3", "--decisions", "d.jsonl"]
        )
        assert args.query_id == 3
        assert args.decisions == "d.jsonl"

    def test_slo_requires_spans_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["slo"])
        args = build_parser().parse_args(["slo", "--spans", "s.jsonl"])
        assert args.spans == "s.jsonl"
        assert args.min_events == 20

    def test_profile_defaults(self):
        # A profiled run is `trace --profile`; `profile` reads a dump.
        args = build_parser().parse_args(["trace", "--profile"])
        assert args.profile is True
        assert args.policy == "schemble"
        assert args.out == "traces"
        assert build_parser().parse_args(["trace"]).profile is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])
        args = build_parser().parse_args(["profile", "--spans", "s.jsonl"])
        assert args.spans == "s.jsonl"
        assert args.top == 5

    def test_diff_requires_two_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diff"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diff", "base.json"])
        args = build_parser().parse_args(["diff", "a.json", "b.json"])
        assert args.base == "a.json"
        assert args.new == "b.json"
        assert args.sim_rel == 0.05
        assert args.wall_ratio == 1.6
        assert args.wall_floor == 1e-3


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "text_matching" in out
        assert "table1" in out

    def test_sweep_small(self, capsys, tm_setup):
        # tm_setup fixture pre-warms the cached small setup, so the CLI
        # reuses it and the run stays quick.
        assert main(["sweep", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "schemble" in out
        assert "original" in out

    def test_budget(self, capsys, vc_setup):
        assert main(["budget", "--task", "vehicle_counting"]) == 0
        out = capsys.readouterr().out
        assert "schemble*" in out
        assert "oracle" in out

    def test_trace(self, capsys, tm_setup, tmp_path):
        # A nested, not-yet-existing output directory must be created.
        out_dir = tmp_path / "artifacts" / "run1"
        assert main([
            "trace", "--duration", "5", "--out", str(out_dir)
        ]) == 0
        out = capsys.readouterr().out
        assert "buffer depth over time" in out
        assert "per-worker utilization" in out
        assert "streaming digests" in out
        stem = out_dir / "text_matching_schemble"
        spans = stem.with_name(stem.name + "_spans.jsonl")
        timeline = stem.with_name(stem.name + "_timeline.json")
        report = stem.with_name(stem.name + "_report.txt")
        decisions = stem.with_name(stem.name + "_decisions.jsonl")
        prom = stem.with_name(stem.name + "_metrics.prom")
        for path in (spans, timeline, report, decisions, prom):
            assert path.exists()
            assert f"wrote {path}" in out
        first = json.loads(spans.read_text().splitlines()[0])
        assert first["kind"] == "arrival"
        payload = json.loads(timeline.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        assert "repro_queries_completed" in prom.read_text()

    def test_trace_explain_slo_pipeline(self, capsys, tm_setup, tmp_path):
        # trace -> explain/slo: the downstream commands read the
        # artifacts the trace command wrote.
        assert main([
            "trace", "--duration", "5", "--out", str(tmp_path),
            "--slo-target", "0.05", "--slo-window", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "slo (miss budget 5.0%" in out
        decisions = tmp_path / "text_matching_schemble_decisions.jsonl"
        spans = tmp_path / "text_matching_schemble_spans.jsonl"

        first = json.loads(decisions.read_text().splitlines()[0])
        assert main([
            "explain", str(first["query_id"]),
            "--decisions", str(decisions),
        ]) == 0
        out = capsys.readouterr().out
        assert f"query {first['query_id']}:" in out
        assert f"mask={first['chosen_mask']}" in out

        assert main([
            "slo", "--spans", str(spans),
            "--slo-target", "0.05", "--slo-window", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "slo replay" in out
        assert "overload episodes" in out

    def test_explain_unknown_query_errors(self, tmp_path):
        decisions = tmp_path / "decisions.jsonl"
        decisions.write_text("")
        with pytest.raises(SystemExit):
            main(["explain", "12345", "--decisions", str(decisions)])
        with pytest.raises(SystemExit):
            main(["explain", "1", "--decisions", str(tmp_path / "nope")])

    def test_profile_and_diff_pipeline(self, capsys, tm_setup, tmp_path):
        # trace --profile -> diff: a profiled run writes spans +
        # artifact, the self-diff is quiet, and an injected DP-phase
        # slowdown flags.
        out_dir = tmp_path / "prof"
        assert main([
            "trace", "--profile", "--duration", "5", "--out", str(out_dir)
        ]) == 0
        out = capsys.readouterr().out
        assert "latency attribution report" in out
        assert "per-query latency attribution" in out
        assert "dp step phases" in out
        assert "blame report" in out
        spans = out_dir / "text_matching_schemble_spans.jsonl"
        artifact = out_dir / "text_matching_schemble_profile.json"
        for path in (spans, artifact):
            assert path.exists()
            assert f"wrote {path}" in out

        # Same artifact on both sides: nothing to flag, exit 0.
        assert main(["diff", str(artifact), str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "no phase-level differences" in out

        # Span dump vs its own artifact: identical simulated metrics.
        assert main(["diff", str(spans), str(artifact)]) == 0
        capsys.readouterr()

        # Inject a 2x DP step-phase slowdown: flagged, exit 1.
        payload = json.loads(artifact.read_text())
        payload["sched_wall_s"] *= 2.0
        payload["sched_phase_wall_s"] = {
            k: v * 2.0 for k, v in payload["sched_phase_wall_s"].items()
        }
        slowed = tmp_path / "slowed_profile.json"
        slowed.write_text(json.dumps(payload))
        assert main(["diff", str(artifact), str(slowed)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "sched.wall_s" in out

    def test_profile_offline_from_spans(self, capsys, tm_setup, tmp_path):
        assert main([
            "trace", "--duration", "5", "--out", str(tmp_path)
        ]) == 0
        capsys.readouterr()
        spans = tmp_path / "text_matching_schemble_spans.jsonl"
        artifact = tmp_path / "text_matching_schemble_profile.json"
        assert not artifact.exists()  # only --profile writes one
        # Offline attribution of the dump writes a sibling artifact.
        assert main(["profile", "--spans", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "latency attribution report" in out
        assert artifact.exists()
        assert f"wrote {artifact}" in out

    def test_profile_missing_spans_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", "--spans", str(tmp_path / "nope.jsonl")])

    def test_diff_missing_artifact_errors(self, tmp_path):
        real = tmp_path / "real_profile.json"
        real.write_text(json.dumps({"schema": "repro.profile/1"}))
        with pytest.raises(SystemExit):
            main(["diff", str(real), str(tmp_path / "nope.json")])

    @pytest.mark.faults
    def test_trace_with_faults(self, capsys, tm_setup, tmp_path):
        assert main([
            "trace", "--duration", "4", "--out", str(tmp_path),
            "--failure-rate", "0.3", "--jitter", "0.05", "--retries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault injection & degraded mode:" in out
        assert "task failures" in out
        spans = tmp_path / "text_matching_schemble_spans.jsonl"
        kinds = {
            json.loads(line)["kind"]
            for line in spans.read_text().splitlines()
        }
        assert "task_failed" in kinds

    @pytest.mark.faults
    def test_fleet_comparison_table(self, capsys, tm_setup):
        assert main([
            "fleet", "--duration", "5", "--shards", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet comparison" in out
        for name in ("single", "hash", "power_of_two", "score_aware"):
            assert name in out

    def test_fleet_traced_pipeline(self, capsys, tm_setup, tmp_path):
        out_dir = tmp_path / "fleet"
        assert main([
            "fleet", "--duration", "5", "--shards", "2",
            "--router", "power_of_two", "--out", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        merged = out_dir / "text_matching_fleet_power_of_two_spans.jsonl"
        prom = out_dir / "text_matching_fleet_power_of_two_metrics.prom"
        shard0 = out_dir / (
            "text_matching_fleet_power_of_two_shard0_spans.jsonl"
        )
        shard1 = out_dir / (
            "text_matching_fleet_power_of_two_shard1_spans.jsonl"
        )
        for path in (merged, prom, shard0, shard1):
            assert path.exists()
            assert f"wrote {path}" in out
        assert "repro_router_routed" in prom.read_text()
        kinds = {
            json.loads(line)["kind"]
            for line in merged.read_text().splitlines()
        }
        assert "route" in kinds
        # The merged and per-shard streams replay through the offline
        # consumers (slo here; profile is covered by its own suite).
        capsys.readouterr()
        assert main(["slo", "--spans", str(merged)]) == 0
        assert "resolved queries" in capsys.readouterr().out
        assert main(["slo", "--spans", str(shard1)]) == 0

    def test_control_comparison_and_artifacts(self, capsys, tm_setup,
                                              tmp_path):
        out_dir = tmp_path / "control"
        assert main([
            "fleet", "--control", "--duration", "5", "--shards", "2",
            "--out", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet comparison" in out
        assert "control interval 1s" in out
        for name in ("single", "hash", "power_of_two", "score_aware",
                     "controlled"):
            assert name in out
        assert "degraded" in out
        assert "controller actions:" in out
        assert "overload episodes:" in out
        stem = out_dir / "text_matching_fleet_power_of_two_control"
        spans = stem.with_name(stem.name + "_spans.jsonl")
        prom = stem.with_name(stem.name + "_metrics.prom")
        log = stem.with_name(stem.name + "_log.jsonl")
        shards = [
            stem.with_name(f"{stem.name}_shard{shard}_spans.jsonl")
            for shard in (0, 1)
        ]
        for path in (spans, prom, log, *shards):
            assert path.exists()
            assert f"wrote {path}" in out
        for line in log.read_text().splitlines():
            assert set(json.loads(line)) == {
                "time", "kind", "shard", "level", "burn", "queue_limit",
            }
        # The merged stream replays through the offline slo consumer.
        capsys.readouterr()
        assert main(["slo", "--spans", str(spans)]) == 0
        assert "resolved queries" in capsys.readouterr().out

    def test_faults_command(self, capsys, tm_setup):
        assert main([
            "faults", "--duration", "4", "--rates", "0,0.3",
            "--retries", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience sweep" in out
        assert "degraded" in out
        assert "drop" in out
        assert "fail=0.3" in out


class TestDistillCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["distill"])
        assert args.out == "artifacts"
        assert args.model == "auto"
        assert args.val_fraction == 0.25
        assert args.decisions is None
        assert args.policy == "schemble"

    def test_scheduler_flags_on_serving_commands(self):
        for command in ("trace", "fleet"):
            args = build_parser().parse_args([command])
            assert args.scheduler is None
            assert args.policy_model is None
            assert args.regret_threshold == 0.5
        args = build_parser().parse_args([
            "trace", "--scheduler", "learned",
            "--policy-model", "policy.json",
            "--regret-threshold", "0.1",
        ])
        assert args.scheduler == "learned"
        assert args.regret_threshold == 0.1

    def test_distill_then_learned_trace(self, capsys, tm_setup, tmp_path):
        assert main([
            "distill", "--duration", "8", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "distilled policy" in out
        assert "val exact-mask acc" in out
        artifact = tmp_path / "policy_text_matching.json"
        assert artifact.exists()
        assert (tmp_path / "text_matching_schemble_decisions.jsonl").exists()

        assert main([
            "trace", "--duration", "5",
            "--scheduler", "learned",
            "--policy-model", str(artifact),
            "--out", str(tmp_path / "traces"),
        ]) == 0
        out = capsys.readouterr().out
        assert "size-routed" in out
        assert "fallback rate over" in out

    def test_distill_from_existing_decisions(self, capsys, tm_setup,
                                             tmp_path):
        assert main([
            "trace", "--duration", "8", "--scheduler", "dp",
            "--out", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        decisions = tmp_path / "text_matching_schemble_decisions.jsonl"
        assert main([
            "distill", "--decisions", str(decisions),
            "--out", str(tmp_path / "art"),
        ]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "art" / "policy_text_matching.json").exists()
        # No fresh replay: the only artifact written is the policy.
        assert out.count("wrote") == 1

    def test_distill_missing_decisions_errors(self):
        with pytest.raises(SystemExit):
            main(["distill", "--decisions", "nope.jsonl"])


class TestLiveOps:
    def test_live_parser_defaults(self):
        for command in ("trace", "fleet"):
            args = build_parser().parse_args([command])
            assert args.live is False
            assert args.cadence == 1.0
            assert args.serve_metrics is None
            assert args.serve_hold == 0.0

    def test_trace_live_writes_snapshot_stream(self, capsys, tm_setup,
                                               tmp_path):
        assert main([
            "trace", "--duration", "5", "--live", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        snaps = tmp_path / "text_matching_schemble_snapshots.jsonl"
        assert snaps.exists()
        assert f"wrote {snaps}" in out
        lines = [json.loads(l) for l in snaps.read_text().splitlines()]
        assert [s["seq"] for s in lines] == list(range(len(lines)))
        assert lines[-1]["totals"]["queries.arrived"] > 0

    def test_top_once_prints_one_frame(self, capsys, tm_setup, tmp_path):
        # Off a terminal a live run prints the console once, as its
        # final frame, ahead of the live footer.
        assert main([
            "trace", "--live", "--duration", "5", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("live top — 1 source,") == 1
        assert "\x1b[2J" not in out
        assert out.index("live top") < out.index("live telemetry:")
        assert (tmp_path / "text_matching_schemble_snapshots.jsonl"
                ).exists()

    def test_top_once_control_mode(self, capsys, tm_setup, tmp_path):
        # The console of a live controlled fleet: one row per plane
        # (fleet-wide and per shard) and one snapshot stream per plane,
        # each shard's beside its spans.
        assert main([
            "fleet", "--control", "--live", "--shards", "2",
            "--duration", "5", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "live top — 3 sources" in out
        sources = {
            line.split()[0] for line in out.splitlines() if line.strip()
        }
        assert {"fleet", "shard0", "shard1"} <= sources
        assert "fleet*" not in sources
        stem = "text_matching_fleet_power_of_two_control"
        for suffix in ("", "_shard0", "_shard1"):
            snaps = tmp_path / f"{stem}{suffix}_snapshots.jsonl"
            assert snaps.exists()
            assert f"wrote {snaps}" in out
            assert snaps.read_text().strip()
            assert (tmp_path / f"{stem}{suffix}_spans.jsonl").exists()

    def test_live_console_repaints_on_a_terminal(self, capsys, tm_setup,
                                                 tmp_path, monkeypatch):
        # With stdout a terminal the run goes on a worker thread and
        # the console repaints (clear screen + home) until it ends;
        # then the final frame prints with the rest of the output.
        import sys

        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        assert main([
            "trace", "--live", "--duration", "5", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        clear = "\x1b[2J\x1b[H"
        assert out.startswith(clear + "live top")
        # The last repaint, then the final frame and the live footer.
        tail = out[out.rindex(clear):]
        assert tail.count("live top — 1 source,") == 2
        assert tail.rindex("live top") < tail.index("live telemetry:")

    def test_incident_post_mortem(self, capsys, tmp_path):
        # Freeze a bundle with the library, then post-mortem it with
        # the CLI — deterministic and fast, no breach orchestration.
        from repro.obs import (
            LiveConfig,
            LiveTelemetry,
            RecordingTracer,
            write_incident_json,
        )
        from repro.obs.spans import ARRIVAL, COMPLETE, SLO_BREACH

        live = LiveTelemetry(LiveConfig(cadence=1.0, watchdog=False))
        tracer = RecordingTracer(live=live)
        for i in range(6):
            t = 0.1 + i * 0.1
            tracer.emit(ARRIVAL, t, i)
            tracer.emit(COMPLETE, t, i, latency=0.01, slack=-0.01)
        tracer.emit(SLO_BREACH, 0.8, -1, burn=2.0)
        path = write_incident_json(
            live.incidents[0], tmp_path / "incident_00.json"
        )
        assert main(["incident", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident post-mortem" in out
        assert "slo_breach" in out
        assert "re-derived" in out

    def test_incident_missing_bundle_errors(self):
        with pytest.raises(SystemExit):
            main(["incident", "nope.json"])

    def test_incident_rejects_non_bundle_json(self, tmp_path):
        path = tmp_path / "not_a_bundle.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(SystemExit, match="incident bundle"):
            main(["incident", str(path)])

    def test_trace_serve_metrics_scrape(self, capsys, tm_setup, tmp_path):
        # --serve-metrics 0 implies --live; the endpoint URL is
        # announced on stderr before the run, and --serve-hold keeps it
        # scrapeable after the run finishes.
        import re
        import threading
        import time
        import urllib.error
        import urllib.request

        result = {}

        def run():
            result["rc"] = main([
                "trace", "--duration", "5", "--serve-metrics", "0",
                "--serve-hold", "8", "--out", str(tmp_path),
            ])

        def scrape(url):
            for _ in range(25):  # a mid-run mutation race answers 503
                try:
                    with urllib.request.urlopen(url, timeout=5.0) as resp:
                        return resp.read().decode()
                except urllib.error.HTTPError as err:
                    if err.code != 503:
                        raise
                    time.sleep(0.2)
            raise AssertionError(f"{url} stayed busy")

        thread = threading.Thread(target=run)
        thread.start()
        stderr, url = "", None
        deadline = time.monotonic() + 30.0
        while url is None and time.monotonic() < deadline:
            stderr += capsys.readouterr().err
            match = re.search(r"http://[\d.]+:\d+", stderr)
            if match:
                url = match.group(0)
            else:
                time.sleep(0.1)
        assert url is not None, stderr
        metrics = scrape(url + "/metrics")
        snapshot = json.loads(scrape(url + "/snapshot"))
        thread.join(timeout=60.0)
        assert result["rc"] == 0
        assert "repro_queries_arrived" in metrics
        assert snapshot["source"] == "server"
