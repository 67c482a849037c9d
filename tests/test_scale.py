"""The scale script's table, at a small n."""
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
                      "admits_gtt_s", "admits_gtt_dd"]
    assert [row[0] for row in rows] == ["8", "9"]
    for row in rows:
        assert all(float(x) >= 0 for x in row[1::2])
        # E(S) in closed form, none to classify, one for W(E) in admits_gtt
        assert row[2::2] == ["0", "0", "1"]
