"""Gallery entries: expected classifications, regression driver, faults."""
import dataclasses

import pytest

from gptgeom import gallery
from gptgeom.gallery import (
    NAMES,
    GalleryEntry,
    UnknownNameError,
    check_entry,
    load,
    polytopic_entries,
    run_all,
)
from gptgeom.geometry import hull_reduce
from gptgeom.linalg import qvec
from gptgeom.systems import (
    Classification,
    EffectSpace,
    GptClass,
    GptSystem,
    StateSpace,
    _system,
    unrestricted_effects,
)


def test_all_entries_pass():
    report = run_all()
    assert report.failures == 0, "\n".join(report.lines())


def test_expected_tags():
    expected = {
        "bit": GptClass.UNRESTRICTED,
        "bit-transformed": GptClass.UNRESTRICTED,
        "noisy-bit": GptClass.NOISY_UNRESTRICTED,
        "notch-bit": GptClass.NOT_ALMOST_NU,
        "squit": GptClass.UNRESTRICTED,
        "spekkens": GptClass.NOT_ALMOST_NU,
        "rebit-64": GptClass.UNRESTRICTED,
        "rebit": GptClass.UNRESTRICTED,
        "noisy-rebit": GptClass.NOISY_UNRESTRICTED,
        "anu-bit": GptClass.ALMOST_NU_ONLY,
    }
    for name, tag in expected.items():
        assert load(name).classify().tag is tag


def test_parametrized_names():
    assert load("noisy-bit(1)").classify().tag is GptClass.UNRESTRICTED
    assert load("noisy-bit(1/3)").classify().tag is GptClass.NOISY_UNRESTRICTED
    assert load("noisy-rebit(1)").classify().tag is GptClass.UNRESTRICTED


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        load("qubit")


@pytest.mark.parametrize("name", [" bit ", "\tsquit\n", " noisy-bit(1/3) "])
def test_surrounding_whitespace_is_ignored(name):
    assert load(name).name == load(name.strip()).name


@pytest.mark.parametrize("name", ["bit(7)", "squit(1/3)", "rebit-64(1/2)", "anu-bit(1)"])
def test_parameter_on_an_entry_without_one_is_unknown(name):
    with pytest.raises(UnknownNameError):
        load(name)


def test_corrupted_entry_fails_alone():
    entries = [load(n) for n in ("bit", "squit")]
    broken = dataclasses.replace(entries[0], expected=GptClass.NOT_ALMOST_NU)
    ok_broken, msg = check_entry(broken)
    assert not ok_broken and "classified" in msg
    ok_fine, _ = check_entry(entries[1])
    assert ok_fine


def _with_stored_witness(entry, witness):
    """The entry over a copy of its system classified NotAlmostNu at witness."""
    sys = entry.gpt_system()
    copy = GptSystem(sys.states, sys.effects, sys.name)
    object.__setattr__(copy, "_classification",
                       Classification(GptClass.NOT_ALMOST_NU, witness=witness))
    return dataclasses.replace(entry, system=copy)


def test_check_entry_names_each_problem_alone(monkeypatch):
    bit, spek = load("bit"), load("spekkens")
    bit_s, bit_e = bit.gpt_system().states.polytope, bit.gpt_system().effects.polytope
    # every valid state body survives the roundtrip; an unnormalized one,
    # (0, 1) to (2, 2), does not: W(E(S)) is the segment to (1, 1).  Its E(S)
    # lacks the unit effect, so the roundtrip's EffectSpace must not check it.
    monkeypatch.setattr(gallery, "EffectSpace", EffectSpace._raw)
    stretched = StateSpace._raw(hull_reduce([qvec(0, 1), qvec(2, 2)]), qvec(0, 1))
    raw = _system(stretched, EffectSpace._raw(unrestricted_effects(stretched), stretched.unit))
    unit = spek.gpt_system().unit
    cases = [
        (dataclasses.replace(bit, expected_effect_map=bit_s),
         "full effect body differs from expected"),
        (dataclasses.replace(bit, expected_state_map=bit_e),
         "recovered state body differs from expected"),
        (GalleryEntry("stretched", raw, GptClass.UNRESTRICTED),
         "state body does not survive the effect/state roundtrip"),
        (_with_stored_witness(spek, None), "classification witness does not certify the gap"),
        (_with_stored_witness(spek, unit), "classification witness does not certify the gap"),
    ]
    for entry, message in cases:
        assert check_entry(entry) == (False, message)


def test_empty_filter_gives_empty_report():
    report = run_all(names=[])
    assert report.results == [] and report.failures == 0


def test_seven_polytopic_entries():
    entries = polytopic_entries()
    assert len(entries) == 7
    assert all(e.kind == "polytopic" for e in entries)
    assert [e.name for e in entries] == ["bit", "bit-transformed", "noisy-bit(1/2)",
                                         "notch-bit", "squit", "spekkens", "rebit-64"]


def test_substitute_coordinates_flagged():
    for name in ("noisy-bit", "notch-bit"):
        assert "declared substitute" in load(name).source


def test_each_model_listed_once():
    assert len(NAMES) == len(set(NAMES))
    for model in ("bit", "rebit", "noisy-rebit", "squit", "spekkens", "anu-bit"):
        assert model in NAMES
