"""Graceful SIGINT/SIGTERM handling, in-process and through the real CLI."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sweep.signals import GracefulInterrupt, SweepInterrupted

pytestmark = pytest.mark.sweep_smoke

REPO_ROOT = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


class TestGracefulInterruptUnit:
    def test_flag_mode_sets_requested(self, capsys):
        with GracefulInterrupt(on_first="flag", hint="resume hint", stream=sys.stderr) as g:
            assert not g.requested
            signal.raise_signal(signal.SIGINT)
            assert g.requested
        err = capsys.readouterr().err
        assert "finishing gracefully" in err
        assert "resume hint" in err

    def test_raise_mode_raises_in_main_thread(self):
        with pytest.raises(SweepInterrupted):
            with GracefulInterrupt(on_first="raise"):
                signal.raise_signal(signal.SIGTERM)

    def test_second_signal_forces_exit(self, capsys):
        exits = []
        with GracefulInterrupt(on_first="flag", force_exit=exits.append) as g:
            signal.raise_signal(signal.SIGINT)
            assert g.requested
            assert exits == []
            signal.raise_signal(signal.SIGINT)
        assert exits == [GracefulInterrupt.EXIT_CODE]
        assert "forcing exit" in capsys.readouterr().err

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            GracefulInterrupt(on_first="explode")


class TestCliSignals:
    def test_sweep_sigint_flushes_and_hints_resume(self, tmp_path):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                "fig4/single-link-churn scheme=numfabric,dctcp seed=0..249",
                "--serial",
                "--quiet",
                "--cache-dir",
                str(tmp_path),
            ],
            cwd=REPO_ROOT,
            env=ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # The header line is printed (and flushed) before any cell runs, so
        # reading it guarantees the signal handler is installed.
        header = process.stdout.readline()
        assert header.startswith("sweep: 500 cells")
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == GracefulInterrupt.EXIT_CODE
        assert "finishing gracefully" in stderr
        assert "rerun the same command to resume" in stderr
        assert "cancelled=" in stdout

    def test_run_sigint_interrupts_gracefully(self):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "run",
                "hotspot/leaf-spine",
                "--scale",
                "paper",
                "--quiet",
            ],
            cwd=REPO_ROOT,
            env=ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Paper scale runs ~15 s on the default (flow) engine after ~0.3 s of
        # start-up (fig5/websearch, used here before, now finishes in ~2.5 s);
        # by 2.5s the handler is installed and the scenario is mid-flight.
        time.sleep(2.5)
        assert process.poll() is None, "paper-scale run finished implausibly fast"
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == GracefulInterrupt.EXIT_CODE
        assert "finishing gracefully" in stderr
        assert "run interrupted" in stderr
