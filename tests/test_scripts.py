"""Smoke tests: each script in scripts/ runs on a small input, exits 0 and
prints its table."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _start(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120)


def _run(script: str, *args: str) -> list[str]:
    proc = _start(script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_census_sweep_prints_one_row_per_n():
    lines = _run("census_sweep.py", "--nmin", "3", "--nmax", "5")
    assert lines[0].split() == ["n", "total", "hfree", "certifiable",
                                "fraction", "secs"]
    rows = [line.split() for line in lines[1:]]
    assert [r[:4] for r in rows] == [["3", "8", "8", "8"],
                                     ["4", "64", "64", "64"],
                                     ["5", "1024", "1024", "1024"]]


def test_census_sweep_rejects_threads_on_a_serial_run():
    """The default unlabeled mode is serial, so --threads 2 is a usage
    error (exit 2, no traceback); labeled runs take it."""
    proc = _start("census_sweep.py", "--nmin", "3", "--nmax", "3", "--threads", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith("it takes only --threads 1")
    assert "Traceback" not in proc.stderr
    assert _run("census_sweep.py", "--nmin", "3", "--nmax", "3", "--threads", "2",
                "--mode", "labeled")[1].split()[:4] == ["3", "8", "8", "8"]


def test_census_sweep_rejects_nmax_past_the_census_cap():
    """A labeled census stops at n = 7, so --nmax 8 is a usage error (exit
    2) before any row is printed, not a traceback after the n < 8 rows."""
    proc = _start("census_sweep.py", "--mode", "labeled", "--nmin", "8", "--nmax", "8")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith("labeled census supports 1 <= n <= 7")
    assert "Traceback" not in proc.stderr


def test_partition_trends_prints_the_bell_ratio_mean():
    lines = _run("partition_trends.py", "--n", "20", "--samples", "200",
                 "--seed", "1")
    assert lines[0] == "n=20, samples=200"
    assert lines[1].startswith("mean #blocks")
    assert "exact 8.1808" in lines[1]
    assert len(lines) == 4


def test_partition_trends_rejects_a_negative_seed():
    """Exit 2 with one line on stderr, not a traceback."""
    proc = _start("partition_trends.py", "--n", "20", "--samples", "2",
                  "--seed", "-3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "partition_trends.py: error: sampler seed must be at least 0, got -3"]


def test_sequence_survey_tallies_c6_to_c12():
    lines = _run("sequence_survey.py")
    assert len(lines) == 4
    assert lines[0].startswith(
        "C6 (k=2): 13 sequences, {'case1': 3, 'case2': 8, 'case3': 1, 'case4': 1}")
    assert lines[1].startswith(
        "C8 (k=3): 19 sequences, {'case1': 17, 'case2': 2}")
    assert lines[2].startswith(
        "C10 (k=4): 25 sequences, {'case1': 25}")
    assert lines[3].startswith(
        "C12 (k=5): 31 sequences, {'case1': 31}")
