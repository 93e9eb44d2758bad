import errno
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from gridwatch import _pcg64, cli, csvio, harness
from gridwatch.cli import main
from gridwatch.config import MAX_PERIODS, dumps_config, load_config, loads_config, parse_behavior
from gridwatch.csvio import RunManifest
from gridwatch.harness import usable_cpus
from gridwatch.errors import ConfigurationError
from gridwatch.model import FixedOffset, Multiplicative, RandomOffset
from conftest import python_env
from test_cli_errors import finite_cells

MINIMAL = "[attackers]\n25 = multiplicative 0.1\n"

TINY = """\
[region]
consumers = 5
periods_per_day = 4

[attackers]
1 = multiplicative 0.1

[experiment]
repetitions = 3
"""


def assert_one_error_line(capsys, mentions=""):
    err = capsys.readouterr().err
    assert err.startswith("gridwatch: error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert mentions in err


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.consumers == 100
        assert cfg.periods_per_day == 96
        assert cfg.threshold == 0.5
        assert cfg.usage_min == 0.5
        assert cfg.usage_max == 1.5
        assert cfg.attackers == ((25, Multiplicative(0.1)),)

    def test_attacker_out_of_range_names_id(self):
        with pytest.raises(ConfigurationError, match="200"):
            loads_config("[attackers]\n200 = multiplicative 0.1\n")

    def test_zero_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="threshold"):
            loads_config(MINIMAL + "[detection]\nthreshold = 0.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="thresold"):
            loads_config("[detection]\nthresold = 0.5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="creds"):
            loads_config("[creds]\nuser = x\n")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nconsumers = 5\n",
        "[region]\nperiods_per_day = 4\n[DEFAULT]\nconsumers = 5\n",
    ])
    def test_default_section_rejected(self, text):
        # configparser's DEFAULT section is neither ignored nor copied into [region]
        with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
            loads_config(text)

    @pytest.mark.parametrize("text, breach", [
        ("[region]\nconsumers = 1000000000000\n", "values a month"),  # 2.9e17
        ("[region]\nconsumers = 1024\nperiods_per_day = 4370\n", "values a month"),  # 2**27 + 28,672
        ("[experiment]\nmonths = 1000000000\n", "periods"),
        ("[experiment]\nmonths = 1457\n", "periods"),  # 4,196,160 > 2**22
    ])
    def test_window_size_limits_checked_before_any_profile(self, monkeypatch, text, breach):
        # one error before any per-consumer or per-period array is built
        def no_array(*args, **kwargs):
            raise AssertionError("an array was built before the size check")

        for name in ("arange", "array", "empty", "full", "ones", "zeros"):
            monkeypatch.setattr(np, name, no_array)
        with pytest.raises(ConfigurationError, match=f"{breach}, above the limit"):
            loads_config(text)

    @pytest.mark.parametrize("text", [
        "[region]\nconsumers = 1024\nperiods_per_day = 4369\n",  # 134,215,680 <= 2**27 values
        "[experiment]\nmonths = 1456\n",  # 4,193,280 <= 2**22 periods
    ])
    def test_windows_at_the_size_limits_load(self, text):
        # loading checks sums; nothing of the window's size is allocated
        assert loads_config(text).total_periods <= MAX_PERIODS

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.cfg")

    def test_behavior_specs(self):
        assert parse_behavior("benign") == Multiplicative(1.0)
        assert parse_behavior("fixed_offset 0.7") == FixedOffset(0.7, "subtract")
        assert parse_behavior("random_offset 0.3 add") == RandomOffset(0.3, "add")
        with pytest.raises(ConfigurationError):
            parse_behavior("steal_everything 1.0")

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL,
            TINY,
            MINIMAL + "[detection]\nmode = most_negative\nlow_report_quantile = 0.25\n",
            MINIMAL + "[billing]\ntariff = 1.75\nelasticity_factor = 0.8\nelasticity_level = 1.2\n",
            MINIMAL + "[experiment]\nmonths = 3\nmaster_seed = 99\n",
        ],
    )
    def test_round_trip(self, text, tmp_path):
        cfg = loads_config(text)
        path = tmp_path / "resolved.cfg"
        path.write_text(dumps_config(cfg))
        assert load_config(path) == cfg


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def write_tiny(self, tmp_path):
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY)
        return str(path)

    def test_missing_config_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["destroy-grid", "--config", "x"])
        assert exc.value.code == 2

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[attackers]\n200 = multiplicative 0.1\n")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "200" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[region]\nconsumers = \xff\n")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, f"cannot read config {path}")
        assert not (tmp_path / "detection.csv").exists()

    def test_numpy_draws_that_differ_are_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a numpy whose double conversion is not the one the jump-ahead reads follow
        monkeypatch.setattr(_pcg64, "_checked", False)
        monkeypatch.setattr(_pcg64, "_to_unit", lambda hi, lo, out=None: np.multiply(hi ^ lo, 2.0**-64, out=out))
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY)
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, f"numpy {np.__version__}")
        assert not (tmp_path / "detection.csv").exists()

    def test_a_config_setting_region_id_is_one_error_line(self, tmp_path, capsys):
        # the key was dropped; a file that still sets it names it, and nothing is written
        path = tmp_path / "old.cfg"
        path.write_text(f"[region]\nregion_id = 0\n{MINIMAL}")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "gridwatch: error: unknown key 'region_id' in section [region]\n"
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("region", ["", "[region]\nperiods_per_day = 4\n"])
    def test_default_section_is_one_error_line(self, tmp_path, capsys, region):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{region}[DEFAULT]\nconsumers = 5\n")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "unknown section [DEFAULT]")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("spec", ["multiplicative inf", "fixed_offset inf", "random_offset nan"])
    def test_non_finite_attacker_is_one_error_line(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[attackers]\n25 = {spec}\n")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys)
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("bound", ["usage_max = inf", "usage_min = -inf", "usage_min = nan"])
    def test_non_finite_usage_bound_is_one_error_line(self, tmp_path, capsys, bound):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[region]\n{bound}\n{MINIMAL}")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "finite")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("q", ["7", "0", "1", "inf", "nan"])
    def test_quantile_outside_unit_interval_is_one_error_line(self, tmp_path, capsys, q):
        # checked before any trial, though most-negative selection never reads it
        path = tmp_path / "bad.cfg"
        path.write_text(f"{TINY}[detection]\nmode = most_negative\nlow_report_quantile = {q}\n")
        argv = ["fig-duration-sweep", "--config", str(path), "--reps", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert_one_error_line(capsys, "low_report_quantile")
        assert not (tmp_path / "fig_duration_sweep.csv").exists()

    @pytest.mark.parametrize("billing", [
        "tariff = nan",
        "tariff = inf",
        "elasticity_factor = inf\nelasticity_level = 1.0",
        "elasticity_factor = 0.8\nelasticity_level = nan",
    ])
    def test_non_finite_billing_is_one_error_line(self, tmp_path, capsys, billing):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{TINY}[billing]\n{billing}\n")
        assert main(["bill", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "finite")
        assert not (tmp_path / "bills.csv").exists()

    @pytest.mark.parametrize("command, csv, config", [
        ("bill", "bills.csv", "[region]\nusage_min = 0\nusage_max = 1e308\n"),
        ("simulate", "records.csv", "[region]\nusage_min = 0\nusage_max = 1e308\n"),
        ("detect", "detection.csv", "[region]\nusage_max = 1e308\n"),
        ("bill", "bills.csv", "[billing]\nelasticity_factor = 1e308\nelasticity_level = 0.5\n"),
    ])
    def test_values_that_overflow_are_one_error_line(self, tmp_path, capsys, command, csv, config):
        # each used to write inf (bills, totals) or label everyone insufficient_data, with exit 0
        path = tmp_path / "huge.cfg"
        path.write_text(config + MINIMAL)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "overflow")
        assert not (tmp_path / csv).exists()

    @pytest.mark.parametrize("command, csv", [
        ("simulate", "records.csv"), ("detect", "detection.csv"), ("bill", "bills.csv"),
    ])
    def test_a_factor_at_a_tariff_below_its_level_never_overflows(self, tmp_path, capsys, command, csv):
        # the guard reads the span the draw uses: no period is scaled at a
        # tariff at or below the level, so a factor that would overflow is harmless
        path = tmp_path / "elastic.cfg"
        billing = "[billing]\ntariff = {}\nelasticity_factor = 1e153\nelasticity_level = 0.5\n"
        path.write_text(TINY + billing.format(0.4))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        finite_cells(tmp_path / csv)
        path.write_text(TINY + billing.format(0.6))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "above")]) == 1
        assert_one_error_line(capsys, "overflow the correlation sums")

    def test_window_over_the_size_limit_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a window over the size limit was simulated")

        monkeypatch.setattr(harness, "simulate_window", no_draw)
        path = tmp_path / "long.cfg"
        path.write_text(MINIMAL + "[experiment]\nmonths = 1000000000\n")
        assert main(["detect", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "above the limit")
        assert not (tmp_path / "detection.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_one_error_line(self, tmp_path, capsys, threads):
        cfg = self.write_tiny(tmp_path)
        argv = ["table1", "--config", cfg, "--reps", "2", "--threads", threads]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "--threads")
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("attackers", ["", "1 = multiplicative 0.1\n2 = multiplicative 0.1\n"])
    def test_table1_needs_exactly_one_attacker(self, tmp_path, capsys, attackers):
        path = tmp_path / "multi.cfg"
        path.write_text(f"[region]\nconsumers = 10\nperiods_per_day = 4\n[attackers]\n{attackers}")
        assert main(["table1", "--config", str(path), "--reps", "2", "--out-dir", str(tmp_path)]) == 1
        assert_one_error_line(capsys, "exactly one attacker")
        assert not (tmp_path / "table1.csv").exists()

    def test_simulate_is_reproducible_byte_for_byte(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.run_cli("simulate", "--config", cfg, "--seed", "1", "--out-dir", str(out1)) == 0
        assert self.run_cli("simulate", "--config", cfg, "--seed", "1", "--out-dir", str(out2)) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_records_schema(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("simulate", "--config", cfg, "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == "period,actual_total,reported_total,leakage,sampled_id,sampled_report"
        assert len(lines) == 1 + 120  # header + 30 days * 4 periods

    def test_detection_csv_sorted_by_consumer(self, tmp_path):
        path = tmp_path / "three.cfg"
        path.write_text("[region]\nconsumers = 3\nperiods_per_day = 2\n")
        assert self.run_cli("detect", "--config", str(path), "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "detection.csv").read_text().splitlines()
        assert lines[0] == "consumer_id,sample_count,corr,label"
        assert len(lines) == 4
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_bills_csv_has_no_ground_truth_column(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("bill", "--config", cfg, "--out-dir", str(tmp_path)) == 0
        header = (tmp_path / "bills.csv").read_text().splitlines()[0]
        assert header == "consumer_id,window_start,window_end,amount"
        assert "actual" not in header and "usage" not in header

    def test_manifest_reruns_identically(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out1 = tmp_path / "first"
        assert self.run_cli("detect", "--config", cfg, "--seed", "9", "--out-dir", str(out1)) == 0
        manifest = json.loads((out1 / "detect_manifest.json").read_text())
        assert manifest["master_seed"] == 9
        # re-running from the manifest's embedded config reproduces the bytes
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(manifest["config_text"])
        out2 = tmp_path / "second"
        assert self.run_cli("detect", "--config", str(replay_cfg), "--out-dir", str(out2)) == 0
        assert (out1 / "detection.csv").read_bytes() == (out2 / "detection.csv").read_bytes()

    def test_manifest_records_the_environment(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("detect", "--config", cfg, "--out-dir", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "detect_manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["cpu_count"] == usable_cpus() >= 1
        # importing gridwatch set it, to 1 unless the caller had
        assert manifest["blas_threads"] == os.environ["OPENBLAS_NUM_THREADS"]
        glibc = platform.libc_ver()[0] == "glibc"
        assert manifest["heap"] == ("glibc thresholds set" if glibc else "default")

    def test_table1_layout(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("table1", "--config", cfg, "--reps", "2", "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "case,months,probability,stderr,reps"
        assert len(lines) == 1 + 3 * 4  # three cases x four durations
        cases = [line.split(",")[0] for line in lines[1:]]
        assert cases == ["I"] * 4 + ["II"] * 4 + ["III"] * 4

    def test_duration_sweep(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("fig-duration-sweep", "--config", cfg, "--reps", "2",
                            "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "fig_duration_sweep.csv").read_text().splitlines()
        months = [line.split(",")[1] for line in lines[1:]]
        assert months == ["1", "3", "6", "12"]

    @pytest.mark.parametrize("command,csv", [
        ("table1", "table1.csv"), ("fig-duration-sweep", "fig_duration_sweep.csv"),
    ])
    def test_worker_count_leaves_csv_unchanged(self, tmp_path, command, csv):
        cfg = self.write_tiny(tmp_path)
        for threads in ("1", "2"):
            argv = [command, "--config", cfg, "--reps", "2", "--threads", threads]
            assert self.run_cli(*argv, "--out-dir", str(tmp_path / threads)) == 0
        assert (tmp_path / "1" / csv).read_bytes() == (tmp_path / "2" / csv).read_bytes()

    def test_selection_without_evidence_is_a_miss(self, tmp_path):
        # the add-offset attacker leaves the leakage constant, so no
        # consumer's correlation is defined in any trial
        path = tmp_path / "constant.cfg"
        path.write_text("[region]\nconsumers = 10\n[attackers]\n5 = fixed_offset 0.3 add\n"
                        "[detection]\nmode = most_negative\n")
        assert self.run_cli("fig-duration-sweep", "--config", str(path), "--reps", "2",
                            "--out-dir", str(tmp_path)) == 0
        rows = (tmp_path / "fig_duration_sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.0"] * 4

    def test_fig_concentration(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        assert self.run_cli("fig-concentration", "--config", cfg, "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "fig_concentration.csv").read_text().splitlines()
        assert lines[0] == "months,consumer_id,sample_count,corr,label"
        assert len(lines) == 1 + 2 * 5  # two durations x five consumers

    def test_threshold_override(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        bad = main(["detect", "--config", cfg, "--threshold", "0.0", "--out-dir", str(tmp_path)])
        assert bad == 1

    def test_a_write_that_fails_partway_leaves_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        # 2,880 periods: records.csv is three chunks, and its second chunk's write fails
        cfg, out = tmp_path / "minimal.cfg", tmp_path / "out"
        cfg.write_text(MINIMAL)
        argv = ["simulate", "--config", str(cfg), "--out-dir", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}
        real_open = open

        class FullDisk:
            """A file whose third write (the header, then chunk 1, then chunk 2) fails."""

            def __init__(self, *args, **kwargs):
                self.file, self.writes = real_open(*args, **kwargs), 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.file.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

        monkeypatch.setattr(csvio, "open", FullDisk, raising=False)
        assert main([*argv, "--seed", "2"]) == 1
        assert_one_error_line(capsys, f"cannot write {out / 'records.csv'}")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier

    def test_a_failed_manifest_write_leaves_no_manifest_of_another_run(self, tmp_path, capsys, monkeypatch):
        # the seed-2 run replaces records.csv, then cannot move its manifest into place
        cfg, out, fresh = tmp_path / "minimal.cfg", tmp_path / "out", tmp_path / "fresh"
        cfg.write_text(MINIMAL)
        argv = ["simulate", "--config", str(cfg)]
        assert main([*argv, "--seed", "2", "--out-dir", str(fresh)]) == 0
        assert main([*argv, "--seed", "1", "--out-dir", str(out)]) == 0
        real_replace = os.replace

        def full_disk(source, target):
            if str(target).endswith("_manifest.json"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", full_disk)
        assert main([*argv, "--seed", "2", "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, f"cannot write {out / 'simulate_manifest.json'}")
        assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]
        assert (out / "records.csv").read_bytes() == (fresh / "records.csv").read_bytes()
        want = json.loads((fresh / "simulate_manifest.json").read_text())
        for path in out.glob("*_manifest.json"):
            manifest = json.loads(path.read_text())
            assert manifest["master_seed"] == want["master_seed"], path.name
            assert manifest["config_text"] == want["config_text"], path.name

    def test_an_interrupt_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def interrupted(config, out_dir, threads):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "detect", ("interrupted", interrupted))
        assert main(["detect", "--config", self.write_tiny(tmp_path), "--out-dir", str(tmp_path)]) == 130
        assert capsys.readouterr().err == "gridwatch: error: interrupted\n"


class TestManifest:
    def test_manifest_round_trips_config(self):
        cfg = loads_config(MINIMAL)
        manifest = RunManifest(
            command="detect",
            master_seed=cfg.master_seed,
            config_text=dumps_config(cfg),
            outputs=["detection.csv"],
            wall_clock_seconds=0.25,
        )
        parsed = json.loads(manifest.to_json())
        assert loads_config(parsed["config_text"]) == cfg
        assert parsed["version"]


REPEAT_TABLE1 = textwrap.dedent("""\
    import resource, sys
    from gridwatch.cli import main

    argv = ["table1", "--config", sys.argv[1], "--out-dir", sys.argv[2]]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
def test_a_repeated_table1_pass_faults_in_no_freed_heap(tmp_path):
    # A second 20-repetition pass in one process reuses the heap that the first one
    # freed.  Handed back to the OS, its whole-window arrays fault in ~15,600 pages a pass.
    config = tmp_path / "table1.cfg"
    config.write_text(MINIMAL + "[experiment]\nrepetitions = 20\nmaster_seed = 42\n")
    env = python_env({k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")})
    argv = [sys.executable, "-c", REPEAT_TABLE1, str(config), str(tmp_path)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
    assert int(result.stdout) <= 500


INTERRUPTED_TABLE1 = textwrap.dedent("""\
    import multiprocessing, os, signal, sys, time
    from gridwatch import cli, harness

    def stalled(job):
        # every job records its worker's pid, the first to start interrupts the run
        with open(sys.argv[3], "a") as pids:
            print(os.getpid(), file=pids, flush=True)
        try:
            os.close(os.open(sys.argv[4], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)

    multiprocessing.set_start_method("fork")
    harness._count_successes, harness.usable_cpus = stalled, lambda: 2  # two workers on any host
    sys.exit(cli.main(["table1", "--config", sys.argv[1], "--out-dir", sys.argv[2], "--threads", "2"]))
""")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the workers are forked")
def test_an_interrupted_pool_stops_its_workers_at_once(tmp_path):
    # Each job sleeps 60 s once the first has sent SIGINT; leaving the pool used to
    # wait for the jobs its workers held.  No worker may print a traceback.
    config = tmp_path / "table1.cfg"
    config.write_text(TINY)
    pids, lock = tmp_path / "pids", tmp_path / "lock"
    argv = [sys.executable, "-c", INTERRUPTED_TABLE1, str(config), str(tmp_path), str(pids), str(lock)]
    child = subprocess.Popen(argv, env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        _, err = child.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the run and its workers: a new session each
        child.communicate()
        pytest.fail("the interrupted run waited for the jobs its workers held")
    assert (child.returncode, err) == (130, "gridwatch: error: interrupted\n")
    workers = [int(pid) for pid in pids.read_text().split()]
    assert workers
    deadline = time.monotonic() + 5
    while workers and time.monotonic() < deadline:
        workers = [pid for pid in workers if _running(pid)]
        time.sleep(0.05)
    assert workers == []


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


ALL_COMMANDS = textwrap.dedent("""\
    import sys
    from gridwatch import cli, detection

    calls = []
    low_report_filter = detection.low_report_filter
    detection.low_report_filter = lambda *args: calls.append(args) or low_report_filter(*args)
    for command in cli._COMMANDS:
        assert cli.main([command, "--config", sys.argv[1], "--out-dir", sys.argv[2]]) == 0, command
    print(len(calls), "numpy.ma" in sys.modules)
""")


def test_no_command_imports_masked_arrays(tmp_path):
    # np.quantile's first call imports numpy.ma (about 10 ms and 1.9 MB); the low-report
    # cutoff is computed without it
    config = tmp_path / "low_report.cfg"
    config.write_text(
        "[region]\nconsumers = 10\nperiods_per_day = 4\n[attackers]\n1 = fixed_offset 0.6 subtract\n"
        "[detection]\nlow_report_quantile = 0.25\n[experiment]\nrepetitions = 3\n"
    )
    argv = [sys.executable, "-c", ALL_COMMANDS, str(config), str(tmp_path)]
    result = subprocess.run(argv, env=python_env(), capture_output=True, text=True, timeout=300, check=True)
    calls, imported = result.stdout.split()
    assert int(calls) > 0 and imported == "False"


def test_detect_writes_the_same_bytes_on_any_cpu_count(tmp_path):
    # `pearson` takes each low-report correlation with three `@` (BLAS ddot), and
    # OpenBLAS splits a ddot of more than 10,000 entries across its threads, one per
    # CPU unless OPENBLAS_NUM_THREADS says otherwise, which changes the sum's last
    # bits.  12 months of 2 consumers sample each about 17,280 times, and the 0.75
    # quantile keeps about 13,000 low-report pairs of each: both groups are split.
    config = tmp_path / "two_consumers.cfg"
    config.write_text(
        "[region]\nconsumers = 2\n[attackers]\n1 = fixed_offset 0.6 subtract\n"
        "[detection]\nlow_report_quantile = 0.75\n[experiment]\nmonths = 12\n"
    )
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    csvs = []
    for name, environ in [("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})]:
        argv = [sys.executable, "-m", "gridwatch.cli", "detect", "--config", str(config),
                "--out-dir", str(tmp_path / name)]
        subprocess.run(argv, env=python_env(environ), capture_output=True, timeout=120, check=True)
        csvs.append((tmp_path / name / "detection.csv").read_bytes())
    assert csvs[0] == csvs[1]
