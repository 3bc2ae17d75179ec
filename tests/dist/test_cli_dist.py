"""CLI surface of the dist stack: endpoints, flag validation, fleets.

The fleet tests check that an interrupt mid-fleet terminates every
child instead of orphaning it, that a fleet whose workers all die fails
instead of hanging, and that ``--shards N`` -- a loopback coordinator
with N worker subprocesses -- exports exactly what a solo run does.
"""

import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import _parse_endpoint, build_parser, main
from repro.dist.fleet import Fleet
from repro.errors import MelodyError


class TestParseEndpoint:
    def test_bare_port_defaults_host(self):
        assert _parse_endpoint("8080") == ("127.0.0.1", 8080)

    def test_host_and_port(self):
        assert _parse_endpoint("0.0.0.0:9999") == ("0.0.0.0", 9999)

    def test_port_zero_means_ephemeral(self):
        assert _parse_endpoint(":0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("bad", ["", "host:", "nope", "1.2.3.4:70000"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(MelodyError):
            _parse_endpoint(bad)


class TestCampaignFlags:
    def test_campaign_and_coordinate_parse_one_spec(self, tmp_path):
        import json

        from repro.dist.spec import CampaignSpec
        from repro.faults.plan import retry_storm_plan

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            retry_storm_plan(0.0, 1e9, multiplier=4.0).to_dict()
        ))
        argv = ["--platform", "EMR2S", "--targets", "numa", "cxl-b",
                "--suite", "GAPBS", "--sample", "3",
                "--fault-plan", str(path)]
        parser = build_parser()
        solo = CampaignSpec.from_args(parser.parse_args(
            ["campaign", *argv]
        ))
        coordinated = CampaignSpec.from_args(parser.parse_args(
            ["coordinate", *argv, "--cache-dir", str(tmp_path)]
        ))
        assert solo == coordinated
        assert solo.targets == ("numa", "cxl-b")
        assert solo.fault_plan is not None
        assert CampaignSpec.from_args(parser.parse_args(["campaign"])) \
            == CampaignSpec.from_args(parser.parse_args(
                ["coordinate", "--cache-dir", str(tmp_path)]
            ))


class TestCampaignFlagValidation:
    def test_coordinator_excludes_shards(self, capsys, tmp_path):
        code = main([
            "campaign", "--coordinator", ":0", "--shards", "2",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_coordinator_requires_cache_dir(self, capsys):
        code = main(["campaign", "--coordinator", ":0"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_dist_workers_floor(self, capsys, tmp_path):
        code = main([
            "campaign", "--coordinator", ":0", "--dist-workers", "0",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 2
        assert "--dist-workers" in capsys.readouterr().err

    def test_cell_timeout_requires_cache_dir(self, capsys):
        code = main(["campaign", "--cell-timeout", "5"])
        assert code == 2
        assert "--cell-timeout requires --cache-dir" \
            in capsys.readouterr().err

    def test_dist_spellings_set_the_cell_flags(self):
        parser = build_parser()
        for flag in ("--cell-timeout", "--dist-lease"):
            args = parser.parse_args(["campaign", flag, "7.5"])
            assert args.cell_timeout == 7.5
        for flag in ("--cell-retries", "--dist-unit-retries"):
            args = parser.parse_args(["campaign", flag, "4"])
            assert args.cell_retries == 4
        args = parser.parse_args(["campaign"])
        assert args.cell_timeout is None and args.cell_retries is None
        assert not hasattr(args, "dist_lease")
        assert not hasattr(args, "dist_unit_retries")

    def test_serve_has_no_cell_timeout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--cell-timeout", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cell-timeout" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["campaign", "--dist-heartbeat", "1"],
        ["coordinate", "--cache-dir", "unused", "--heartbeat", "0.5"],
    ])
    def test_keepalive_flags_are_gone(self, capsys, argv):
        """The lease is the only liveness signal: no interval to set."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" \
            in capsys.readouterr().err

    def test_worker_endpoint_validated(self, capsys):
        code = main(["worker", "--connect", "not-an-endpoint"])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err


class FakeProc:
    """A subprocess stand-in recording lifecycle calls."""

    def __init__(self, code=0, running=False, stubborn=False):
        self.code = code
        self.running = running
        self.stubborn = stubborn
        self.terminated = False
        self.killed = False

    def poll(self):
        return None if self.running else self.code

    def wait(self, timeout=None):
        if self.stubborn and timeout is not None and not self.killed:
            raise subprocess.TimeoutExpired(cmd="fake", timeout=timeout)
        self.running = False
        return self.code

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


def fleet_of(*procs):
    """A fleet (no coordinator) whose launches hand out ``procs``."""
    return Fleet(None, list(procs).__getitem__)


class TestFleetCleanup:
    def test_interrupt_terminates_running_children(self):
        runner, done = FakeProc(running=True), FakeProc(code=0)
        with pytest.raises(KeyboardInterrupt):
            with fleet_of(runner, done) as fleet:
                fleet.launch()
                fleet.launch()
                raise KeyboardInterrupt()
        assert runner.terminated and not runner.killed
        assert not done.terminated  # already exited: reaped, not signaled

    def test_stubborn_child_is_killed_after_grace(self):
        stubborn = FakeProc(running=True, stubborn=True)
        with fleet_of(stubborn) as fleet:
            fleet.launch()
        assert stubborn.terminated and stubborn.killed

    def test_sigterm_remapped_to_keyboard_interrupt(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signal handlers only install on the main thread")
        before = signal.getsignal(signal.SIGTERM)
        with fleet_of():
            handler = signal.getsignal(signal.SIGTERM)
            assert handler is not before
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGTERM, None)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_clean_exit_touches_nothing(self):
        done = FakeProc(code=0)
        with fleet_of(done) as fleet:
            fleet.launch()
        assert not done.terminated and not done.killed


GAPBS_ARGV = [
    "campaign", "--platform", "EMR2S", "--targets", "numa", "cxl-a",
    "--suite", "GAPBS", "--sample", "6",
]


class TestShardsAlias:
    @pytest.fixture(autouse=True)
    def fresh_runtime(self):
        from repro.runtime import reset_runtime

        reset_runtime()
        yield
        reset_runtime()

    def _exports(self, capsys, out, *extra):
        code = main(GAPBS_ARGV + [
            "--csv", str(out / "d.csv"), "--json", str(out / "d.json"),
            *extra,
        ])
        assert code == 0
        return capsys.readouterr().out

    def test_two_shards_export_exactly_what_solo_does(
        self, capsys, tmp_path
    ):
        from repro.runtime import reset_runtime

        solo, fleet = tmp_path / "solo", tmp_path / "fleet"
        solo.mkdir()
        fleet.mkdir()
        self._exports(capsys, solo)
        reset_runtime()
        cache = str(tmp_path / "cache")
        out = self._exports(capsys, fleet, "--cache-dir", cache,
                            "--shards", "2")
        assert "15/15 units committed" in out
        assert "0 conflict(s)" in out
        for name in ("d.csv", "d.json"):
            assert (fleet / name).read_bytes() == (solo / name).read_bytes()
        # Resuming the finished campaign re-runs nothing.
        reset_runtime()
        out = self._exports(capsys, fleet, "--cache-dir", cache,
                            "--shards", "2", "--resume")
        assert "leases: 0 granted" in out
        assert "(0 run," in out
        for name in ("d.csv", "d.json"):
            assert (fleet / name).read_bytes() == (solo / name).read_bytes()

    def test_one_shard_is_a_solo_run(self, capsys, tmp_path):
        out = self._exports(capsys, tmp_path, "--cache-dir",
                            str(tmp_path / "cache"), "--shards", "1")
        assert "units committed" not in out
        assert "records" in out

    def test_single_shard_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(GAPBS_ARGV + ["--cache-dir", str(tmp_path),
                               "--shard", "0/2"])
        assert exc.value.code == 2

    def test_fleet_whose_workers_all_die_exits_2(
        self, capsys, tmp_path, monkeypatch
    ):
        """No deadline is set: only noticing the dead children ends it."""
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(main(GAPBS_ARGV + [
                "--cache-dir", str(tmp_path), "--shards", "2",
            ])),
            daemon=True,
        )
        start = time.monotonic()
        runner.start()
        runner.join(timeout=30)
        assert codes == [2]
        assert time.monotonic() - start < 15
        err = capsys.readouterr().err
        assert "every dist worker exited" in err
        assert "dw0=1, dw1=1" in err

    def test_shards_requires_cache_dir(self, capsys):
        assert main(GAPBS_ARGV + ["--shards", "2"]) == 2
        assert "--cache-dir" in capsys.readouterr().err
