"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.heap import heap_library_asm


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
main:
    mov rdi, 64
    call malloc
    mov [rax], 7
    halt
""")
    return str(path)


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "bug.s"
    path.write_text("""
main:
    mov rdi, 64
    call malloc
    mov [rax + 64], 7
    halt
""")
    return str(path)


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (["list"], ["run", "x.s"], ["workload", "mcf"],
                     ["figure", "3"], ["table", "2"], ["security"]):
            assert parser.parse_args(argv).command == argv[0]

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "mcf",
                                       "--variant", "nonsense"])

    def test_bad_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "not-a-benchmark"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "ucode-prediction" in out

    def test_run_clean_program(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "violations" in out

    def test_run_buggy_program_nonzero_exit(self, buggy_file, capsys):
        assert main(["run", buggy_file, "--trap"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out and "out-of-bounds" in out

    def test_run_appends_heap_library_once(self, tmp_path, capsys):
        path = tmp_path / "own.s"
        path.write_text("main:\n    mov rax, 1\n    halt\n"
                        + heap_library_asm())
        assert main(["run", str(path)]) == 0

    def test_workload(self, capsys):
        assert main(["workload", "lbm"]) == 0
        out = capsys.readouterr().out
        assert "capability$" in out and "bandwidth" in out

    def test_table_3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_figure_1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_security_subsampled(self, capsys):
        assert main(["security", "--ripe-limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "How2Heap" in out


class TestTelemetryFlags:
    def test_run_metrics_out(self, program_file, tmp_path, capsys):
        import json

        path = tmp_path / "m.json"
        assert main(["run", program_file, "--metrics-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["metrics"]["machine.instructions"] > 0
        assert doc["meta"]["variant"] == "ucode-prediction"

    def test_run_trace_out_jsonl(self, program_file, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        assert main(["run", program_file, "--trace-out", str(path)]) == 0
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines()}
        assert "capgen" in kinds
        assert "trace: wrote" in capsys.readouterr().err

    def test_run_trace_out_chrome(self, program_file, tmp_path, capsys):
        import json

        path = tmp_path / "t.json"
        assert main(["run", program_file, "--trace-out", str(path),
                     "--trace-format", "chrome"]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"

    def test_trace_subcommand_filters(self, program_file, capsys):
        assert main(["trace", program_file, "--kind", "capcheck"]) == 0
        captured = capsys.readouterr()
        assert "capcheck" in captured.out
        assert "capgen" not in captured.out
        assert "emitted" in captured.err

    def test_trace_bad_capacity(self, program_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", program_file, "--capacity", "0"])
        assert exc.value.code == 2

    def test_workload_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "wm.json"
        assert main(["workload", "lbm", "--metrics-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["meta"]["workload"] == "lbm"
        assert doc["metrics"]["machine.instructions"] > 0

    def test_figure_metrics_out_requires_engine(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "1", "--metrics-out", "x.json"])
        assert exc.value.code == 2
        assert "engine-backed" in capsys.readouterr().err


class TestProfileOutDefault:
    def test_derived_from_program_stem(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "myprog.s"
        path.write_text("main:\n    mov rax, 1\n    halt\n")
        assert main(["run", str(path), "--profile",
                     "--no-heap-library"]) == 0
        assert (tmp_path / "myprog.prof").exists()

    def test_explicit_path_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "myprog.s"
        path.write_text("main:\n    mov rax, 1\n    halt\n")
        assert main(["run", str(path), "--profile", "--no-heap-library",
                     "--profile-out", str(tmp_path / "custom.prof")]) == 0
        assert (tmp_path / "custom.prof").exists()
        assert not (tmp_path / "myprog.prof").exists()

    def test_profile_prints_sorted_registry_snapshot(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "p.s"
        path.write_text("main:\n    mov rax, 1\n    halt\n")
        assert main(["run", str(path), "--profile",
                     "--no-heap-library"]) == 0
        out = capsys.readouterr().out
        block = out.split("metrics:\n", 1)[1]
        names = []
        for line in block.splitlines():
            if not line.startswith("  "):
                break
            names.append(line.split()[0])
        assert names == sorted(names)
        assert "total" not in names
        assert {"machine.instructions", "timing.cycles",
                "machine.uop_expansion"} <= set(names)


class TestTranslateFlag:
    def test_run_translate_detects_via_explicit_checks(self, buggy_file,
                                                       capsys):
        assert main(["run", buggy_file, "--translate", "--trap"]) == 1
        out = capsys.readouterr().out
        assert "binary translation:" in out
        assert "out-of-bounds" in out


class TestErrorHandling:
    """User mistakes produce one line on stderr and exit status 2."""

    def assert_exits_2(self, argv, capsys, expect=None):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.strip()
        assert "Traceback" not in err
        if expect:
            assert expect in err
        return err

    def test_missing_assembly_file(self, capsys):
        self.assert_exits_2(["run", "/no/such/prog.s"], capsys,
                            expect="error:")

    def test_unknown_workload(self, capsys):
        self.assert_exits_2(["workload", "doom"], capsys)

    def test_unknown_figure(self, capsys):
        self.assert_exits_2(["figure", "42"], capsys)

    def test_unknown_table(self, capsys):
        self.assert_exits_2(["table", "42"], capsys)

    @pytest.mark.parametrize("command", ["run", "workload"])
    def test_profile_out_requires_profile(self, command, tmp_path, capsys):
        path = tmp_path / "p.s"
        path.write_text("main:\n    halt\n")
        target = str(path) if command == "run" else "mcf"
        dump = tmp_path / "x.prof"
        err = self.assert_exits_2([command, target, "--profile-out",
                                   str(dump)], capsys,
                                  expect="--profile-out requires --profile")
        assert len(err.strip().splitlines()) == 1
        assert not dump.exists()

    def test_jobs_must_be_positive(self, capsys):
        self.assert_exits_2(["figure", "6", "--jobs", "0"], capsys,
                            expect="--jobs")

    @pytest.mark.parametrize("argv", [
        # Commands that never construct an engine must still reject bad
        # engine flags instead of silently ignoring them.
        ["figure", "1", "--jobs", "0"],
        ["figure", "1", "--jobs", "-3"],
        ["table", "3", "--jobs", "0"],
        ["reproduce", "--jobs", "-1"],
    ])
    def test_jobs_validated_on_every_engine_command(self, argv, capsys):
        self.assert_exits_2(argv, capsys, expect="--jobs")

    def test_cell_timeout_must_be_positive(self, capsys):
        self.assert_exits_2(["figure", "6", "--cell-timeout", "0"], capsys,
                            expect="--cell-timeout")
        self.assert_exits_2(["figure", "1", "--cell-timeout", "-2.5"],
                            capsys, expect="--cell-timeout")

    def test_max_retries_must_be_non_negative(self, capsys):
        self.assert_exits_2(["figure", "6", "--max-retries", "-1"], capsys,
                            expect="--max-retries")

    def test_retry_backoff_must_be_non_negative(self, capsys):
        self.assert_exits_2(["table", "4", "--retry-backoff", "-1"], capsys,
                            expect="--retry-backoff")

    def test_resume_conflicts_with_no_cache(self, capsys):
        self.assert_exits_2(["figure", "6", "--resume", "--no-cache"],
                            capsys, expect="--resume")

    def test_engine_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "6", "--jobs", "2",
                                  "--no-cache", "--cache-dir", "/tmp/c"])
        assert args.jobs == 2 and args.no_cache
        assert args.cache_dir == "/tmp/c"
        args = parser.parse_args(["reproduce", "--jobs", "4"])
        assert args.jobs == 4

    def test_fault_tolerance_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["reproduce", "--cell-timeout", "120",
                                  "--max-retries", "5",
                                  "--retry-backoff", "0.5", "--resume"])
        assert args.cell_timeout == 120.0
        assert args.max_retries == 5
        assert args.retry_backoff == 0.5
        assert args.resume
        # Defaults: no timeout, 2 retries, 1s backoff, fresh sweep.
        args = parser.parse_args(["figure", "6"])
        assert args.cell_timeout is None
        assert args.max_retries == 2
        assert args.retry_backoff == 1.0
        assert not args.resume
