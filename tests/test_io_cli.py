"""Wire formats and the command-line front end."""
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gptgeom
from gptgeom.cli import build_parser, main
from gptgeom.gallery import NAMES, load, polytopic_entries
from gptgeom.io import (
    SchemaError,
    dump_canonical,
    samples_from_json,
    samples_to_json,
    system_from_json,
    system_to_json,
)
from gptgeom.frames import FrameSamples
from gptgeom.geometry import hull_reduce, set_equal
from gptgeom.linalg import qvec
from gptgeom.systems import StateSpace, classify, unrestricted_effects, validate_system

F = Fraction


def test_system_roundtrip_byte_normalized():
    for entry in polytopic_entries():
        doc = system_to_json(entry.gpt_system(), entry.observables)
        text = dump_canonical(doc)
        system, observables = system_from_json(json.loads(text))
        assert dump_canonical(system_to_json(system, observables)) == text
        assert set_equal(system.states.polytope, entry.gpt_system().states.polytope)


def test_floats_rejected():
    doc = system_to_json(load("bit").gpt_system())
    doc["states"]["vertices"][0][0] = 0.5
    with pytest.raises(SchemaError):
        system_from_json(doc)
    with pytest.raises(SchemaError):
        samples_from_json({"samples": [{"effect": ["1/2"], "value": 0.25}]})


def test_decimal_strings_rejected():
    doc = system_to_json(load("bit").gpt_system())
    doc["states"]["vertices"][0][0] = "0.5"
    with pytest.raises(SchemaError):
        system_from_json(doc)


def test_samples_roundtrip():
    samples = FrameSamples([(qvec(1, 0), 0), (qvec(0, 1), 1)])
    again = samples_from_json(samples_to_json(samples))
    assert again.pairs == samples.pairs


# -- CLI ------------------------------------------------------------------------


def _write_system(tmp_path, name):
    entry = load(name)
    path = tmp_path / f"{entry.name}.json"
    path.write_text(dump_canonical(system_to_json(entry.gpt_system(), entry.observables)))
    return path


def test_cli_classify_matches_library(tmp_path, capsys):
    for entry in polytopic_entries():
        path = tmp_path / "sys.json"
        path.write_text(dump_canonical(system_to_json(entry.gpt_system())))
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == classify(entry.gpt_system()).describe()


def test_cli_classify_spekkens_text(tmp_path, capsys):
    path = _write_system(tmp_path, "spekkens")
    assert main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NotAlmostNu" in out and "admits GTT: no" in out and "witness" in out


def test_cli_emap_bit(tmp_path, capsys):
    path = _write_system(tmp_path, "bit")
    out_path = tmp_path / "emap.json"
    assert main(["emap", str(path), "--output", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    verts = {tuple(v) for v in doc["vertices"]}
    assert verts == {("-1", "1"), ("0", "0"), ("0", "1"), ("1", "0")}


def test_cli_wmap_spekkens(tmp_path, capsys):
    path = _write_system(tmp_path, "spekkens")
    assert main(["wmap", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["vertices"]) == 8


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    bad = {
        "name": "broken",
        "dimension": 2,
        "states": {"vertices": [["0", "1"], ["1", "1"]]},
        "effects": {"vertices": [["0", "0"], ["0", "1"]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2
    assert "DoesNotSpan" in capsys.readouterr().out
    good = _write_system(tmp_path, "squit")
    assert main(["validate", str(good)]) == 0


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 3


def test_cli_float_rejected_exit_code(tmp_path):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({
        "name": "f", "dimension": 2,
        "states": {"vertices": [[0.25, 1]]},
        "effects": {"vertices": [["0", "0"], ["0", "1"]]},
    }))
    assert main(["classify", str(path)]) == 3


def test_cli_empty_vertex_list_names_file_and_body(tmp_path, capsys):
    doc = system_to_json(load("bit").gpt_system())
    for body in ("states", "effects"):
        bad = copy.deepcopy(doc)
        bad[body]["vertices"] = []
        path = tmp_path / f"empty-{body}.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match=body):
            system_from_json(bad)
        for verb in ("classify", "validate"):
            assert main([verb, str(path)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: '{body}': "), err
            assert "nonempty 'vertices'" in err


def test_cli_recover(tmp_path, capsys):
    sys_path = _write_system(tmp_path, "bit")
    samples = {
        "samples": [
            {"effect": ["1", "0"], "value": "0"},
            {"effect": ["-1/2", "1/2"], "value": "1/2"},
            {"effect": ["1/2", "1/2"], "value": "1/2"},
        ]
    }
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps(samples))
    assert main(["recover", str(spath), "--input", str(sys_path)]) == 0
    assert capsys.readouterr().out.strip() == "(0, 1)"
    samples["samples"][0]["value"] = "1/7"
    spath.write_text(json.dumps(samples))
    assert main(["recover", str(spath), "--input", str(sys_path)]) == 2


def test_cli_recover_checks_sample_length_and_count(tmp_path, capsys):
    sys_path = _write_system(tmp_path, "bit")
    spath = tmp_path / "samples.json"
    for effects in ([["1", "0", "0"]],
                    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]):
        spath.write_text(json.dumps({"samples": [{"effect": e, "value": "0"} for e in effects]}))
        assert main(["recover", str(spath), "--input", str(sys_path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: samples of length 3 for a system of dimension 2\n"
    spath.write_text(json.dumps({"samples": []}))
    assert main(["recover", str(spath), "--input", str(sys_path)]) == 2
    assert capsys.readouterr().out.startswith("UnderDetermined: no samples")


def test_cli_simulate_pipeline(tmp_path, capsys):
    sys_path = _write_system(tmp_path, "bit")
    pipeline = {
        "observables": {
            "E": [["1/4", "0"], ["0", "1/4"], ["-1/4", "3/4"]],
            "F": [["1/8", "1/8"], ["0", "0"], ["-1/8", "7/8"]],
        },
        "steps": [
            {"mix": {"terms": [["E", "1/3"], ["F", "2/3"]], "as": "Gp"}},
            {"coarse": {"of": "Gp", "blocks": [[0, 1], [2]], "as": "G"}},
            {"noisy": {"of": "G", "p": "1/2", "as": "Gn"}},
        ],
        "emit": ["G", "Gn"],
    }
    ppath = tmp_path / "pipe.json"
    ppath.write_text(json.dumps(pipeline))
    assert main(["simulate", str(sys_path), "--pipeline", str(ppath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = {entry["label"] for entry in doc["results"]}
    assert labels == {"G", "Gn"}
    g = next(e for e in doc["results"] if e["label"] == "G")
    first = [F(c) for c in g["outcomes"][0]]
    # (e1 + e2 + 2f)/3 with the vectors above
    assert first == [F(1, 6), F(1, 6)]
    assert doc["valid_observable"]["G"] is True


def test_cli_simulate_family_reads_the_gallery_observables(tmp_path, capsys):
    ppath = tmp_path / "pipe.json"
    ppath.write_text(json.dumps({"steps": [{"noisy": {"of": "B", "p": "1/2", "as": "Bn"}}]}))
    sys_path = _write_system(tmp_path, "bit")
    assert main(["simulate", str(sys_path), "--pipeline", str(ppath)]) == 0
    from_file = capsys.readouterr().out
    assert main(["simulate", "--family", "bit", "--pipeline", str(ppath)]) == 0
    assert capsys.readouterr().out == from_file


def test_cli_plot(tmp_path):
    sys_path = _write_system(tmp_path, "bit-transformed")
    out = tmp_path / "fig.svg"
    assert main(["plot", str(sys_path), "--output", str(out), "--cones",
                 "--float-view"]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "polygon" in svg
    # effect-body slice for a 3D system
    squit = _write_system(tmp_path, "squit")
    out3 = tmp_path / "squit.svg"
    assert main(["plot", str(squit), "--output", str(out3), "--slice", "1/2"]) == 0
    assert "polygon" in out3.read_text()
    # isometric wireframes for a 4D system
    spek = _write_system(tmp_path, "spekkens")
    out4 = tmp_path / "spek.svg"
    assert main(["plot", str(spek), "--output", str(out4), "--slice", "1/2"]) == 0
    assert "<line" in out4.read_text()


def test_cli_gallery_listing_and_export(tmp_path, capsys):
    assert main(["gallery"]) == 0
    out = capsys.readouterr().out
    assert "spekkens" in out and "anu-bit" in out
    path = tmp_path / "squit.json"
    assert main(["gallery", "squit", "--output", str(path)]) == 0
    system, _ = system_from_json(json.loads(path.read_text()))
    assert system.name == "squit"


def test_cli_gallery_exports_a_smooth_family_at_n(tmp_path, capsys):
    path = tmp_path / "rebit.json"
    assert main(["gallery", "rebit", "--output", str(path)]) == 3
    assert "--n" in capsys.readouterr().err and not path.exists()
    assert main(["gallery", "rebit", "--output", str(path), "--n", "8"]) == 0
    assert main(["validate", str(path)]) == 0
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("Unrestricted;")


def test_cli_gallery_unknown(capsys):
    assert main(["gallery", "qutrit"]) == 3
    assert capsys.readouterr().err == \
        f"error: unknown gallery entry 'qutrit'; known: {', '.join(NAMES)}\n"


def test_cli_gallery_inspects_an_entry(capsys):
    assert main(["gallery", "spekkens"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "spekkens: expected NotAlmostNu",
        f"  source: {load('spekkens').source}",
        "  NotAlmostNu; admits GTT: no; witness: (-1/2, -1/2, -1/2, 1/2)",
    ]
    assert main(["gallery", "noisy-bit", "--p", "1/3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "noisy-bit(1/3): expected NoisyUnrestricted"
    assert main(["gallery", "anu-bit", "--n", "8"]) == 0
    assert "polygonal approximant n=8" in capsys.readouterr().out


def test_cli_gallery_export_applies_p(tmp_path, capsys):
    path = tmp_path / "noisy.json"
    assert main(["gallery", "noisy-bit", "--p", "1/3", "--output", str(path)]) == 0
    system, _ = system_from_json(json.loads(path.read_text()))
    assert system.name == "noisy-bit(1/3)"
    expected = load("noisy-bit(1/3)").gpt_system()
    assert set_equal(system.effects.polytope, expected.effects.polytope)


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "squit", "--p", "1/3"],
    ["classify", "--family", "rebit", "--p", "1/3"],
    ["gallery", "bit", "--p", "1/2"],
    ["classify", "--family", "bit", "--n", "8"],
    ["classify", "--family", "rebit-64", "--n", "8"],
    ["emap", "--family", "noisy-bit", "--n", "8"],
    ["gallery", "squit", "--n", "8"],
    # FILE stands for a system file: --p and --n go with --family, not with a file
    ["classify", "FILE", "--p", "1/3"],
    ["classify", "FILE", "--n", "8"],
    ["classify", "--family", "noisy-bit", "--p", ""],
    ["classify", "FILE", "--family", "spekkens"],
    ["emap", "--family", "bit", "--input", "missing.json"],
    ["plot", "FILE", "--slice", ""],
])
def test_cli_flag_that_does_not_apply_exits_3(tmp_path, capsys, argv):
    path = str(_write_system(tmp_path, "squit"))
    argv = [path if a == "FILE" else a for a in argv]
    out = tmp_path / "out.json"
    for extra in ([], ["--output", str(out)]):
        _assert_input_error(capsys, argv + extra)
        assert not out.exists()


def test_cli_plot_outside_dimensions_2_to_4_exits_3(tmp_path, capsys):
    # the classical 5-level system: simplex states, hypercube effects
    states = StateSpace(hull_reduce([qvec(*([0] * 4 + [1]))] + [
        qvec(*([0] * i + [1] + [0] * (3 - i) + [1])) for i in range(4)]))
    system = validate_system(states, unrestricted_effects(states), "classical-5")
    path = tmp_path / "five.json"
    path.write_text(dump_canonical(system_to_json(system)))
    out = tmp_path / "five.svg"
    assert main(["plot", str(path), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimension 5" in err and "2 to 4" in err
    assert not out.exists()


@pytest.mark.parametrize("name, flag, dim", [
    ("squit", ["--cones"], 3),
    ("spekkens", ["--cones"], 4),
    ("spekkens", ["--float-view"], 4),
    ("bit", ["--slice", "1/3"], 2),
])
def test_cli_plot_flag_that_draws_nothing_exits_3(tmp_path, capsys, name, flag, dim):
    out = tmp_path / "fig.svg"
    assert main(["plot", str(_write_system(tmp_path, name)), "--output", str(out), *flag]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[0]} applies in dimension ")
    assert err.endswith(f", not in dimension {dim}\n")
    assert not out.exists()


def test_cli_help_describes_each_verb_s_own_reading(capsys):
    assert main(["suite", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--n N number of random systems to check (default 10)" in text
    assert "polygon" not in text
    assert main(["plot", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--output OUTPUT output path (default: system.svg)" in text
    assert "stdout" not in text
    assert main(["gallery", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--output OUTPUT export the entry's system JSON here" in text


def test_cli_plot_writes_system_svg_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["plot", "--family", "bit"]) == 0
    assert capsys.readouterr().out == "wrote system.svg\n"
    svg = (tmp_path / "system.svg").read_text()
    assert svg.startswith("<svg")
    assert main(["plot", "--family", "bit", "--output", ""]) == 0
    assert capsys.readouterr().out == svg + "\n"


@pytest.mark.parametrize("argv, flag", [
    (["classify", "--family", "noisy-bit", "--p", "0.5"], "--p"),
    (["plot", "--family", "squit", "--slice", "0.5"], "--slice"),
])
def test_cli_malformed_rational_is_named_in_its_own_words(capsys, argv, flag):
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"error: gptgeom {argv[0]}: argument {flag}: "
                                       f"not an exact rational literal: '0.5'\n")


def test_cli_recover_without_a_system_names_input(tmp_path, capsys):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(_DOCS["samples"]))
    assert main(["recover", str(samples)]) == 3
    assert capsys.readouterr().err == "error: no input: give --input or --family\n"


def test_cli_names_a_malformed_file_once(tmp_path, capsys):
    bad, arr = tmp_path / "bad.json", tmp_path / "arr.json"
    bad.write_text("{")
    arr.write_text("[]")
    assert main(["classify", str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: Expecting ")
    assert main(["validate", str(arr)]) == 3
    assert capsys.readouterr().err == f"error: {arr}: the top level must be a JSON object\n"


def test_cli_dimension_below_2_exits_3(tmp_path, capsys):
    doc = system_to_json(load("bit").gpt_system())
    doc["dimension"] = 1
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    for verb in ("validate", "classify"):
        assert main([verb, str(path)]) == 3
        assert capsys.readouterr().err == \
            f"error: {path}: 'dimension' must be an integer >= 2 (ambient dimension)\n"


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "full.json"
    assert main(["emap", "--family", "bit", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "No such file" in err
    assert not out.exists()


def test_cli_suite(capsys):
    assert main(["suite", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "[PASS]" in out


def test_cli_suite_checks_n_random_systems(capsys, monkeypatch):
    from gptgeom import randomgen
    calls = []
    real = randomgen.random_system
    monkeypatch.setattr(randomgen, "random_system",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for n in (0, 2):
        del calls[:]
        assert main(["suite", "--n", str(n)]) == 0
        assert len(calls) == n
    capsys.readouterr()
    del calls[:]
    assert main(["suite", "--n", "-1"]) == 3
    out = capsys.readouterr()
    assert out.err.startswith("error: --n") and out.out == ""
    assert calls == []


def test_cli_smooth_family_flags(capsys):
    assert main(["classify", "--family", "noisy-rebit", "--p", "1/2"]) == 0
    assert "NoisyUnrestricted" in capsys.readouterr().out
    assert main(["classify", "--family", "rebit", "--n", "8"]) == 0
    assert "polygonal approximant" in capsys.readouterr().out


def test_cli_smooth_family_needs_n_for_exact_verbs(tmp_path, capsys):
    assert main(["emap", "--family", "rebit"]) == 3
    assert "--n" in capsys.readouterr().err
    assert main(["emap", "--family", "rebit", "--n", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 2 * 8 + 2
    out = tmp_path / "rebit.svg"
    assert main(["plot", "--family", "rebit", "--output", str(out)]) == 0
    assert "polygon" in out.read_text()


def test_cli_classify_agrees_on_every_gallery_entry(capsys):
    for name in NAMES:
        assert main(["classify", "--family", name]) == 0
        out = capsys.readouterr().out.strip()
        expected = load(name).classify().describe()
        assert out.startswith(expected.split(";")[0])


def test_cli_simulate_reports_seventeen_outcomes(tmp_path, capsys):
    # noisy-bit(1/2): E is the hexagon with vertices 0, u, (+-1/4, 1/4), (+-1/4, 3/4)
    valid = [[f"1/{4 * 8}", f"1/{4 * 8}"]] * 8 + [[f"-1/{4 * 9}", f"3/{4 * 9}"]] * 9
    # every outcome is an effect, but the first two sum to (-1/2, 1/2), outside E
    invalid = [["-1/4", "1/4"]] * 2 + [["1/30", "1/30"]] * 15
    ppath = tmp_path / "pipe.json"
    ppath.write_text(json.dumps({"observables": {"V": valid, "W": invalid}}))
    assert main(["simulate", "--family", "noisy-bit", "--p", "1/2",
                 "--pipeline", str(ppath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [len(e["outcomes"]) for e in doc["results"]] == [17, 17]
    assert doc["valid_observable"] == {"V": True, "W": False}


def _assert_input_error(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_malformed_input_exits_3(tmp_path, capsys):
    ppath = tmp_path / "pipe.json"
    ppath.write_text(json.dumps({"steps": ["mix"]}))
    _assert_input_error(capsys, ["simulate", "--family", "bit", "--pipeline", str(ppath)])
    spath = tmp_path / "samples.json"
    spath.write_text(json.dumps({"samples": [{"effect": ["1", "0"], "value": "1/2"},
                                             {"effect": ["1"], "value": "1/2"}]}))
    _assert_input_error(capsys, ["recover", str(spath), "--family", "bit"])
    _assert_input_error(capsys, ["classify", "--family", "noisy-rebit", "--p", "2"])
    _assert_input_error(capsys, ["classify", "--family", "noisy-bit", "--p", "2"])
    _assert_input_error(capsys, ["classify", "--family", "noisy-bit", "--p", "0.5"])
    # a polygon needs at least 3 vertices, and --n 0 is a given --n
    _assert_input_error(capsys, ["classify", "--family", "anu-bit", "--n", "-3"])
    _assert_input_error(capsys, ["classify", "--family", "anu-bit", "--n", "1"])
    _assert_input_error(capsys, ["emap", "--family", "rebit", "--n", "0"])
    _assert_input_error(capsys, ["plot", "--family", "rebit", "--n", "0",
                                 "--output", str(tmp_path / "zero.svg")])
    for pipeline in ({"emit": ["nope"]},
                     {"observables": {"A": 5}},
                     {"observables": {"A": [["1/2", "1/2"], ["-1/2", "1/2"]]},
                      "steps": [{"mix": {"terms": 5, "as": "B"}}]}):
        ppath.write_text(json.dumps(pipeline))
        _assert_input_error(capsys, ["simulate", "--family", "bit", "--pipeline", str(ppath)])


def test_samples_of_mixed_length_rejected():
    with pytest.raises(SchemaError):
        samples_from_json({"samples": [{"effect": ["1", "0"], "value": "1/2"},
                                       {"effect": ["1"], "value": "1/2"}]})


# -- one parser per process -----------------------------------------------------


def _fresh_run(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gptgeom.__file__)))
    run = subprocess.run([sys.executable, "-m", "gptgeom.cli", *argv], env=env,
                         capture_output=True, text=True, check=False)
    return run.returncode, run.stdout


def test_cli_parser_reuse_keeps_no_state(capsys):
    assert main(["emap", "--family", "rebit", "--n", "8"]) == 0
    assert main(["emap", "--family", "rebit"]) == 3
    capsys.readouterr()
    for argv in (["classify", "--family", "noisy-bit", "--p", "1/3"],
                 ["classify", "--family", "noisy-bit"]):
        code = main(argv)
        assert (code, capsys.readouterr().out) == _fresh_run(argv)
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


# the ten arguments every verb took before each verb declared its own, with
# the value each parses to
_OLD_ARGUMENTS = {
    "path": (["x"], "x"), "--input": (["--input", "i"], "i"),
    "--output": (["--output", "o"], "o"), "--family": (["--family", "f"], "f"),
    "--p": (["--p", "1/3"], F(1, 3)), "--n": (["--n", "3"], 3),
    "--slice": (["--slice", "1/4"], F(1, 4)), "--pipeline": (["--pipeline", "pl"], "pl"),
    "--cones": (["--cones"], True), "--float-view": (["--float-view"], True),
}
_SYSTEM_ARGUMENTS = ["path", "--family", "--p", "--n"]
_VERB_ARGUMENTS = {  # "path" is each verb's positional, whatever its name
    "validate": ["path"],
    "classify": _SYSTEM_ARGUMENTS,
    "emap": _SYSTEM_ARGUMENTS + ["--output"],
    "wmap": _SYSTEM_ARGUMENTS + ["--output"],
    "recover": ["path", "--input", "--family", "--p", "--n"],
    "simulate": _SYSTEM_ARGUMENTS + ["--pipeline", "--output"],
    "plot": _SYSTEM_ARGUMENTS + ["--slice", "--cones", "--float-view", "--output"],
    "gallery": ["path", "--p", "--n", "--output"],
    "suite": ["--n"],
}
_REQUIRED = {"validate": ["path"], "recover": ["path"], "simulate": ["--pipeline"]}


def test_each_verb_takes_only_its_arguments(capsys):
    assert sum(map(len, _VERB_ARGUMENTS.values())) == 39
    for verb, takes in _VERB_ARGUMENTS.items():
        for arg, (tokens, value) in _OLD_ARGUMENTS.items():
            argv = [verb]
            for required in _REQUIRED.get(verb, []):
                if required != arg:
                    argv += _OLD_ARGUMENTS[required][0]
            argv += tokens
            if arg in takes:
                args = build_parser().parse_args(argv)
                assert args.func.__name__ == f"cmd_{verb}"
                assert value in vars(args).values(), (verb, arg)
            else:
                assert main(argv) == 3, (verb, arg)
                err = capsys.readouterr().err
                assert err.startswith("error: gptgeom: unrecognized arguments: ")
                assert tokens[0] in err
        assert main([verb, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: gptgeom {verb} ")


# -- fuzzing the input documents ------------------------------------------------

_DOCS = {
    "system": system_to_json(load("bit").gpt_system(), load("bit").observables),
    "pipeline": {
        "observables": {"E": [["1/4", "0"], ["0", "1/4"], ["-1/4", "3/4"]]},
        "steps": [
            {"mix": {"terms": [["E", "1/3"], ["B", "2/3"]], "as": "M"}},
            {"coarse": {"of": "M", "blocks": [[0, 1], [2]], "as": "G"}},
            {"noisy": {"of": "G", "p": "1/2", "as": "Gn"}},
        ],
        "emit": ["G", "Gn"],
    },
    "samples": {"samples": [{"effect": ["1", "0"], "value": "0"},
                            {"effect": ["-1/2", "1/2"], "value": "1/2"},
                            {"effect": ["1/2", "1/2"], "value": "1/2"}]},
}
_JUNK = (5, -1, 0, "x", "1/0", "", True, None, 0.5, [], {}, [[]], {"a": "1"}, ["1"])


def _paths(node, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_docs(draw):
    """The three documents, one of them hit by one to three mutations:
    a dropped key or element, a value of the wrong type, a float scalar, a
    list one entry longer or shorter (ragged vertices), or a container
    swapped between list and object.  The depth of a mutation is drawn
    first, so the few top-level keys are hit as often as the many
    coordinates."""
    docs = copy.deepcopy(_DOCS)
    name = draw(st.sampled_from(sorted(docs)))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(docs[name]) if p]
        if not paths:
            break
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = docs[name]
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        kind = draw(st.sampled_from(("drop", "junk", "float", "resize", "container")))
        if kind == "drop":
            del parent[key]
        elif kind == "junk":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        elif kind == "float":
            parent[key] = draw(st.sampled_from((0.5, 1.0, -0.0)))
        elif kind == "resize" and isinstance(node, list) and node:
            if draw(st.booleans()):
                node.append(copy.deepcopy(node[0]))
            else:
                node.pop()
        elif kind == "container" and isinstance(node, (list, dict)):
            parent[key] = (dict(zip(map(str, range(len(node))), node))
                           if isinstance(node, list) else list(node.values()))
    return docs


@settings(max_examples=150)
@given(_mutated_docs())
def test_cli_exit_codes_on_malformed_documents(docs):
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, doc in docs.items():
            path[name] = os.path.join(tmp, f"{name}.json")
            with open(path[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        system = path["system"]
        for argv in (["validate", system], ["classify", system], ["emap", system],
                     ["wmap", system], ["recover", path["samples"], "--input", system],
                     ["simulate", system, "--pipeline", path["pipeline"]]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), argv
