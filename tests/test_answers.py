"""The quick answers corpus of ``tools/answers.py``, pinned by its digest.

A change that alters an answer on purpose regenerates the pin with
``python3 tools/answers.py --corpus quick`` and lists the changed lines."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK_DIGEST = "d1bb48e2728760942568eaeb8e0e8cbffc9d446a6664713966bc253c079af8a2"


def test_quick_answers_are_pinned():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "answers.py"), "--corpus", "quick"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert last == f"# sha256 {QUICK_DIGEST}"
