"""The summary of the alternating-pair A/B script, on canned result lines."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _line(ops_per_s, op_p50_ms, failed=0):
    """One last line of ``perfbench/run.py``, as printed."""
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                                   "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}})


def test_summary_counts_by_direction_and_ties_for_neither():
    assert BETTER["ops_per_s"] == "higher" and BETTER["op_p50_ms"] == "lower"
    canned = [(_line(100, 2.0), _line(120, 1.0)),   # change better on both
              (_line(100, 2.0), _line(100, 2.0)),   # ties
              (_line(110, 1.0), _line(90, 3.0)),    # change worse on both
              (_line(100, 2.0), _line(130, 1.5))]
    s = ab.summarize([(json.loads(p), json.loads(c)) for p, c in canned], BETTER)
    assert set(s) == {"ops_per_s", "op_p50_ms"}
    for name in s:
        assert (s[name]["wins"], s[name]["ties"], s[name]["losses"]) == (2, 1, 1)
    assert s["ops_per_s"]["parent"][1] == 100 and s["ops_per_s"]["change"][1] == 110
    assert s["op_p50_ms"]["change"] == (1.375, 1.75, 2.25)


def test_quartiles_of_one_run():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


HEADER = "# git_rev={} python=3.11.7 nproc=2 src_lines={}"


def test_header_fields_of_a_run():
    lines = ["# gptgeom benchmark: workload=disc seed=1 seconds=20 trace=0",
             HEADER.format("53f9284", 3129), "# pass: 12 ops; closed loop, one client",
             _line(100, 2.0)]
    assert ab.header_fields(lines) == {"git_rev": "53f9284", "python": "3.11.7",
                                       "nproc": "2", "src_lines": "3129"}
    assert ab.header_fields([_line(100, 2.0)]) == {}


def _checkout(root, rev, src_lines, ops_per_s):
    """A directory whose ``perfbench/run.py`` prints a canned run."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = [HEADER.format(rev, src_lines), _line(ops_per_s, 2.0)]
    (root / "perfbench" / "run.py").write_text(f"print({chr(10).join(out)!r})\n")
    return root


def test_each_side_prints_its_rev_and_src_lines(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "aaa111", 3129, 100)
    change = _checkout(tmp_path / "change", "unknown", 3150, 120)
    assert ab.main([str(parent), str(change), "--workload", "disc", "--pairs", "1",
                    "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "parent: git_rev aaa111, src_lines 3129" in out
    assert "change: git_rev unknown, src_lines 3150" in out
    assert any(line.startswith("disc ops_per_s") and "wins 1" in line for line in out)
