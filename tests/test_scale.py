"""The scale script's table, at a small n and a small dimension."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scale_prints_times_and_passes_per_step():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale.py"), "--family", "noisy-rebit",
         "--p", "1/2", "--n", "8", "9"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["n", "discretize_s", "discretize_dd", "classify_s", "classify_dd",
                      "admits_gtt_s", "admits_gtt_dd", "peak_rss_mb"]
    assert [row[0] for row in rows] == ["8", "9"]
    # the peak resident set size never falls
    assert 0 < float(rows[0][-1]) <= float(rows[1][-1])
    for row in rows:
        assert all(float(x) >= 0 for x in row[1::2])
        # E(S) in closed form, none to classify, none for W(E) in admits_gtt
        assert row[2::2] == ["0", "0", "0"]


def test_scale_prints_a_row_per_random_seed():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale.py"), "--family", "random", "--dim", "4",
         "--seed", "1", "2"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert header == ["seed", "generate_s", "generate_dd", "classify_s", "classify_dd",
                      "admits_gtt_s", "admits_gtt_dd", "peak_rss_mb"]
    assert [row[0] for row in rows] == ["1", "2"]
    for row in rows:
        assert all(float(x) >= 0 for x in row[1::2])
        # E(S) is stored while generating: none to classify, none for W(E)
        assert int(row[2]) > 0 and row[4:7:2] == ["0", "0"]


def test_scale_prints_the_median_min_and_max_of_repeated_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale.py"), "--family", "rebit", "--n", "8",
         "--runs", "3"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split("\t") for line in done.stdout.splitlines()]
    steps = ("discretize", "classify", "admits_gtt")
    assert header == ["n"] + [f"{s}_{c}" for s in steps
                              for c in ("s", "min_s", "max_s", "dd")] + ["peak_rss_mb"]
    assert [row[0] for row in rows] == ["8"]
    cells = rows[0][1:-1]
    for k in range(3):
        median, low, high, dd = cells[4 * k:4 * k + 4]
        assert 0 <= float(low) <= float(median) <= float(high)
        assert dd == "0"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale.py"), "--family", "rebit", "--n", "8",
         "--runs", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2


def test_scale_rejects_arguments_of_the_other_family():
    for args in (["--family", "random", "--dim", "4"], ["--family", "random", "--n", "8"],
                 ["--family", "rebit", "--seed", "1"]):
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "scale.py"), *args],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, args
