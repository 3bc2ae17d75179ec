"""CLI tests (driven through main() with captured stdout)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestWorkloadsCommand:
    def test_summary(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "total" in out and "265" in out

    def test_suite_filter_verbose(self, capsys):
        code, out = run_cli(capsys, "workloads", "--suite", "GAPBS", "-v")
        assert code == 0
        assert "bfs-twitter" in out
        assert out.count("GAPBS") == 30


class TestInterrupt:
    def test_interrupt_is_an_error_line_not_a_traceback(
        self, capsys, monkeypatch
    ):
        def interrupted(args):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.cli.cmd_workloads", interrupted)
        try:
            code = main(["workloads"])
        except KeyboardInterrupt:  # would abort the whole test session
            pytest.fail("KeyboardInterrupt escaped main()")
        assert code == 130
        captured = capsys.readouterr()
        assert captured.err == "error: interrupted\n"
        assert "Traceback" not in captured.out + captured.err


class TestCharacterizeCommand:
    def test_device_report(self, capsys):
        code, out = run_cli(capsys, "characterize", "cxl-b",
                            "--samples", "5000")
        assert code == 0
        assert "CXL-B" in out
        assert "tail gap" in out
        assert "CPMU" in out

    def test_unknown_device(self, capsys):
        code, _ = run_cli(capsys, "characterize", "cxl-z")
        assert code == 2

    def test_batch_engine_is_gone(self, capsys):
        """Batching is the engine's plan for many cells, not a choice."""
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "cxl-b", "--engine", "batch"])
        assert exc.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err


class TestSpaCommand:
    def test_breakdown(self, capsys):
        code, out = run_cli(capsys, "spa", "605.mcf_s", "--target", "cxl-a")
        assert code == 0
        assert "dominant source" in out
        assert "dram" in out

    def test_cxl_numa_target(self, capsys):
        code, out = run_cli(capsys, "spa", "520.omnetpp_r",
                            "--target", "cxl-a+numa")
        assert code == 0
        assert "CXL-A+NUMA" in out

    def test_unknown_workload(self, capsys):
        code, _ = run_cli(capsys, "spa", "does-not-exist")
        assert code == 2


class TestCampaignCommand:
    def test_campaign_with_export(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out = run_cli(
            capsys, "campaign", "--suite", "PARSEC",
            "--targets", "cxl-a", "--sample", "4",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert csv_path.exists()
        assert "records" in out


class TestFiguresCommand:
    def test_single_figure(self, capsys):
        code, out = run_cli(capsys, "figures", "tab01")
        assert code == 0
        assert "Table 1" in out

    def test_unknown_filter(self, capsys):
        code, out = run_cli(capsys, "figures", "fig99")
        assert code == 1
        assert "available" in out


class TestFiguresExport:
    def test_output_directory_written(self, capsys, tmp_path):
        out = tmp_path / "figures"
        code, _ = run_cli(capsys, "figures", "tab01", "--output", str(out))
        assert code == 0
        files = list(out.glob("*.txt"))
        assert len(files) == 1
        assert "Table 1" in files[0].read_text()


class TestRuntimeFlags:
    @pytest.fixture(autouse=True)
    def fresh_runtime(self):
        # --cache-dir reconfigures the process-wide engine; keep that
        # from leaking into (or out of) other tests.
        from repro.runtime import reset_runtime

        reset_runtime()
        yield
        reset_runtime()

    def test_campaign_prints_stats_line(self, capsys):
        code, out = run_cli(
            capsys, "campaign", "--suite", "PARSEC",
            "--targets", "cxl-a", "--sample", "4",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("runtime:"))
        assert "run," in line and "cached)" in line
        assert "runs/s" in line and "hit rate)" in line

    def test_campaign_warm_cache_skips_runs(self, capsys, tmp_path):
        args = ("campaign", "--suite", "PARSEC", "--targets", "cxl-a",
                "--sample", "4", "--cache-dir", str(tmp_path))
        code, cold = run_cli(capsys, *args)
        assert code == 0
        code, warm = run_cli(capsys, *args)
        assert code == 0
        assert "(0 run," in warm
        rows = lambda text: [l for l in text.splitlines()
                             if l.startswith("  ")]
        assert rows(cold) == rows(warm)

    @pytest.mark.parametrize("argv", [
        ("campaign", "--jobs", "2"),
        ("figures", "tab01", "--jobs", "2"),
        ("campaign", "--engine", "pool"),
        ("campaign", "--engine", "batch"),
        ("campaign", "--engine", "serial"),
        ("campaign", "--checkpoint-every", "2"),
    ])
    def test_process_pool_options_rejected(self, capsys, argv):
        """Removed options exit 2: there is no process pool (``--shards
        N`` fans out), campaign cells never batch, so there is no
        engine to pick, and every finished cell is cached at once, so
        there is no checkpoint interval."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_figures_prints_stats_line(self, capsys):
        code, out = run_cli(capsys, "figures", "tab01")
        assert code == 0
        assert any(l.startswith("runtime:") for l in out.splitlines())


class TestResilienceCLI:
    """Exit-code contract: quarantine warns (0), --strict-cells makes it 3."""

    @pytest.fixture(autouse=True)
    def fresh_runtime(self):
        from repro.runtime import reset_runtime

        reset_runtime()
        yield
        reset_runtime()

    ARGS = ("campaign", "--suite", "PARSEC", "--targets", "cxl-a",
            "--sample", "4")

    def _doomed_key(self):
        # The baseline cell of the first sampled workload: it always runs
        # (capacity never skips the local target), so dooming it is a
        # reliable way to force a quarantine through main().
        from repro.hw.platform import platform_by_name
        from repro.runtime.executor import Cell
        from repro.workloads import workloads_by_suite

        platform = platform_by_name("EMR2S")
        workload = workloads_by_suite("PARSEC")[::4][0]
        return Cell(workload, platform, platform.local_target()).key()

    def test_resume_requires_cache_dir(self, capsys):
        code = main([*self.ARGS, "--resume"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--cache-dir" in err

    def test_quarantine_warns_but_exits_zero(self, capsys):
        from repro.faults.chaos import ChaosPolicy, chaos_injection

        with chaos_injection(ChaosPolicy(doomed=(self._doomed_key(),))):
            code = main([*self.ARGS, "--cell-retries", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: 1 cell(s) quarantined" in captured.err
        assert "after 2 attempt(s)" in captured.err
        assert "records" in captured.out

    def test_strict_cells_turns_quarantine_into_exit_3(self, capsys):
        from repro.faults.chaos import ChaosPolicy, chaos_injection

        with chaos_injection(ChaosPolicy(doomed=(self._doomed_key(),))):
            code = main([*self.ARGS, "--cell-retries", "1",
                         "--strict-cells"])
        assert code == 3
        assert "quarantined" in capsys.readouterr().err

    def test_clean_run_ignores_strict_cells(self, capsys):
        code, out = run_cli(capsys, *self.ARGS, "--strict-cells")
        assert code == 0
        assert "records" in out

    def test_fault_plan_flag_applies_and_restores(self, capsys, tmp_path):
        import json

        from repro.faults.plan import active_fault_plan, retry_storm_plan

        plan = retry_storm_plan(0.0, 1e9, multiplier=400.0)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        code, out = run_cli(capsys, *self.ARGS, "--fault-plan", str(path))
        assert code == 0
        assert f"[{plan.key()[:12]}]" in out
        assert "1 episode(s), enabled" in out
        assert active_fault_plan() is None  # uninstalled on the way out

    def test_checkpoint_resume_round_trip(self, capsys, tmp_path):
        args = (*self.ARGS, "--cache-dir", str(tmp_path))
        code, cold = run_cli(capsys, *args)
        assert code == 0
        code, warm = run_cli(capsys, *args, "--resume")
        assert code == 0
        assert "resuming campaign" in warm
        assert "(0 run," in warm
        rows = lambda text: [l for l in text.splitlines()
                             if l.startswith("  ")]
        assert rows(cold) == rows(warm)

    def test_clean_cold_pass_writes_one_checkpoint(self, capsys, tmp_path):
        import json

        from repro.obs import disable_metrics

        metrics_path = tmp_path / "m.json"
        try:
            code, _ = run_cli(capsys, *self.ARGS, "--cache-dir",
                              str(tmp_path / "cache"), "--metrics",
                              str(metrics_path))
        finally:
            disable_metrics()
        assert code == 0
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["runtime.checkpoints_written"] == 1

    def test_resume_restores_the_quarantine(self, capsys, tmp_path):
        from repro.faults.chaos import ChaosPolicy, chaos_injection
        from repro.runtime import reset_runtime

        args = (*self.ARGS, "--cache-dir", str(tmp_path),
                "--cell-retries", "1")
        with chaos_injection(ChaosPolicy(doomed=(self._doomed_key(),))):
            code, _ = run_cli(capsys, *args)
        assert code == 0
        reset_runtime()
        # No chaos now, yet the quarantined cell is not re-attempted.
        code, warm = run_cli(capsys, *args, "--resume")
        assert code == 0
        assert ": 1 quarantined" in warm
        assert "(0 run," in warm

    def test_resume_without_checkpoint_says_cache_serves(self, capsys,
                                                         tmp_path):
        code, out = run_cli(capsys, *self.ARGS, "--cache-dir",
                            str(tmp_path), "--resume")
        assert code == 0
        assert "finished cells still come from the cache" in out


class TestFitCommand:
    def test_fit_from_files(self, capsys, tmp_path):
        import numpy as np

        from repro.hw.cxl import cxl_b
        from repro.tools.mlc import MemoryLatencyChecker

        rng = np.random.default_rng(5)
        lat = tmp_path / "lat.txt"
        np.savetxt(lat, cxl_b().sample_latencies(20_000, rng))
        curve = tmp_path / "curve.csv"
        mlc = MemoryLatencyChecker()
        lines = ["# bw,lat"]
        for p in mlc.loaded_latency_curve(cxl_b(), (0, 500, 2000, 20000)):
            lines.append(f"{p.bandwidth_gbps},{p.latency_ns}")
        curve.write_text("\n".join(lines) + "\n")

        code, out = run_cli(capsys, "fit", str(lat), str(curve),
                            "--workload", "redis-ycsb-c")
        assert code == 0
        assert "base latency" in out
        assert "slowdown on the fitted device" in out


class TestObsFlags:
    @pytest.fixture(autouse=True)
    def fresh_obs(self):
        # --metrics/--trace install process-wide collectors; never let a
        # failing test leak an enabled registry into the rest of the suite.
        from repro.obs import disable_metrics, disable_tracing

        yield
        disable_metrics()
        disable_tracing()

    def test_characterize_writes_metrics_and_trace(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "characterize", "cxl-a", "--samples", "2000",
            "--metrics", str(metrics), "--trace", str(trace),
            "--trace-sample", "100",
        )
        assert code == 0
        assert f"wrote metrics" in out and f"trace spans" in out
        snapshot = json.loads(metrics.read_text())
        assert 'sim.requests{device="CXL-A"}' in snapshot["counters"]
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans and {"link", "mc", "dram", "host"} <= {
            e["cat"] for e in spans
        }

    def test_prom_suffix_selects_prometheus_text(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code, _ = run_cli(
            capsys, "characterize", "cxl-b", "--samples", "1000",
            "--metrics", str(metrics),
        )
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE repro_sim_requests counter" in text

    def test_obs_flags_leave_metrics_disabled_after(self, capsys, tmp_path):
        from repro.obs import metrics as active_metrics
        from repro.obs import tracing

        run_cli(capsys, "characterize", "cxl-a", "--samples", "1000",
                "--metrics", str(tmp_path / "m.json"),
                "--trace", str(tmp_path / "t.json"))
        assert active_metrics().enabled is False
        assert tracing() is None

    def test_figures_byte_identical_with_obs_on(self, capsys, tmp_path):
        from repro.runtime import reset_runtime

        plain_dir = tmp_path / "plain"
        obs_dir = tmp_path / "obs"
        reset_runtime()
        code, _ = run_cli(capsys, "figures", "tab01", "fig03",
                          "--output", str(plain_dir))
        assert code == 0
        reset_runtime()
        code, _ = run_cli(capsys, "figures", "tab01", "fig03",
                          "--output", str(obs_dir),
                          "--metrics", str(tmp_path / "m.json"),
                          "--trace", str(tmp_path / "t.json"))
        assert code == 0
        reset_runtime()
        plain = sorted(p.name for p in plain_dir.glob("*.txt"))
        assert plain == sorted(p.name for p in obs_dir.glob("*.txt"))
        for name in plain:
            assert (plain_dir / name).read_bytes() == \
                (obs_dir / name).read_bytes()


class TestStatsCommand:
    def _export(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("runtime.cells_run").inc(12)
        registry.gauge("runtime.cache_hit_rate").set(0.5)
        registry.histogram("runtime.batch_seconds",
                           buckets=(1.0,)).observe(0.25)
        path = tmp_path / "metrics.json"
        path.write_text(registry.to_json() + "\n")
        return path

    def test_human_summary(self, capsys, tmp_path):
        path = self._export(tmp_path)
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "3 instruments" in out
        assert "runtime.cells_run" in out and "12" in out
        assert "mean=0.25" in out

    def test_json_re_emission(self, capsys, tmp_path):
        import json

        path = self._export(tmp_path)
        code, out = run_cli(capsys, "stats", str(path), "--json")
        assert code == 0
        assert json.loads(out)["counters"]["runtime.cells_run"] == 12

    def test_missing_file_fails(self, capsys, tmp_path):
        code = main(["stats", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "does not exist" in err

    def test_unparseable_file_fails(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code = main(["stats", str(path)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_fails(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"records": []}')
        code = main(["stats", str(path)])
        assert code == 1
        assert "not a repro metrics export" in capsys.readouterr().err
