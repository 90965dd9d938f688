import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import pytest

from cartanlab.cli import ExtensionDocument, build_extension, main, parse
from cartanlab.errors import ClosureError, FormatError, SizeGuardError
from cartanlab.extension import Extension, extensions_equivalent
from cartanlab.generators import emit, generate
from cartanlab.semigroup_core import PartialBijection, PhasedElement, singleton

from exact_reference import trivial_cocycle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def bundled_rook2_text():
    return (resources.files("cartanlab") / "data" / "rook2.json").read_text()


def test_parse_bundled_rook2():
    doc = parse(bundled_rook2_text())
    assert doc.atoms == 2 and doc.k == 1
    S, ext, names = build_extension(doc)
    assert len(S) == 7
    assert not S.added


def test_parse_duplicate_name_is_located():
    text = (FIXTURES / "malformed" / "08_duplicate_name.json").read_text()
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "'a'" in str(err.value) and "line 10" in str(err.value)


def test_duplicate_name_after_a_cocycle_entry_is_located():
    """``emit`` writes "cocycle" before "elements": the duplicate is looked
    for from the "elements" key on, not from the name's first use."""
    text = (
        '{\n'
        '  "atoms": 1,\n'
        '  "cocycle": [\n'
        '    {"s": "a", "t": "a",\n'
        '     "phase": []}\n'
        '  ],\n'
        '  "elements": [\n'
        '    {"map": {}, "name": "a"},\n'
        '    {"map": {"0": 0}, "name": "z"},\n'
        '    {"map": {}, "name": "a"}\n'
        '  ],\n'
        '  "k": 1\n'
        '}\n'
    )
    assert text.splitlines()[9].endswith('"name": "a"}')
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "duplicate element name 'a'" in str(err.value) and "line 10" in str(err.value)


def test_round_trip_canonical():
    text = bundled_rook2_text()
    doc = parse(text)
    canonical = emit(doc)
    assert parse(canonical) == doc
    assert emit(parse(canonical)) == canonical


def test_round_trip_with_cocycle():
    base = parse(bundled_rook2_text())
    S, _, names = build_extension(base)
    inv = {v: n for n, v in names.items()}
    table = trivial_cocycle(S, 2)
    cocycle = [
        (inv[s], inv[t], list(phase)) for (s, t), phase in table.entries.items()
    ]
    doc = ExtensionDocument(2, 2, base.elements, cocycle, {})
    canonical = emit(doc)
    again = parse(canonical)
    assert emit(again) == canonical
    assert parse(emit(again)) == again and again.cocycle
    assert again != base and again != parse(emit(ExtensionDocument(2, 2, base.elements, cocycle[1:], {})))
    S2, ext, _ = build_extension(again)
    assert ext.k == 2 and len(S2) == 7


def test_generate_counts():
    assert len(generate("rook", 2).elements) == 7
    assert len(generate("rook", 3).elements) == 34
    doc = generate("eqrel", "0,1|2")
    S, _, _ = build_extension(doc)
    assert len(S) == 14


def test_generate_guard():
    with pytest.raises(SizeGuardError):
        generate("rook", 6)


def test_generate_eqrel_guards_its_largest_block():
    """Block sizes 6 and 1 (13,327 and 1 maps): only the largest block is
    guarded, like the rook size."""
    with pytest.raises(SizeGuardError, match="eqrel largest block of size 6 exceeds guard 5"):
        generate("eqrel", "0,1,2,3,4,5|6")
    assert len(generate("eqrel", "0,1|2", guard=2).elements) == 14
    with pytest.raises(SizeGuardError, match="of size 2 exceeds guard 1"):
        generate("eqrel", "0,1|2", guard=1)


def test_generate_product():
    a = generate("rook", 2)
    b = generate("rook", 1)
    doc = generate("product", (a, b))
    S, _, _ = build_extension(doc)
    assert S.atom_count == 3
    assert len(S) == 14  # |I2| * |I1| = 7 * 2


@pytest.mark.parametrize("path", sorted((FIXTURES / "malformed").glob("*.json")), ids=lambda p: p.name)
def test_malformed_corpus_exit_code(path, capsys):
    code = main(["validate", str(path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_validate_pass_exit_zero(tmp_path, capsys):
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    assert main(["validate", str(target)]) == 0
    out = capsys.readouterr().out
    assert "validate: pass" in out


def test_validate_check_failure_exit_one(capsys):
    code = main(["validate", str(FIXTURES / "missing_swap.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_oracle_with_k_override(tmp_path, capsys):
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    out_path = tmp_path / "report.json"
    code = main(["oracle", str(target), "--k", "2", "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["dim_M"] == 4 and payload["dim_D"] == 2 and payload["passed"]


def test_represent_byte_stability(tmp_path, capsys):
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    assert main(["represent", str(target)]) == 0
    first = capsys.readouterr().out
    assert main(["represent", str(target)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "atoms=2 k=1 dim=4" in first


def test_gen_and_equiv_commands(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "rook", "2", "--out", str(a)]) == 0
    assert main(["gen", "rook", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["equiv", str(a), str(a)]) == 0
    assert "equivalent: YES" in capsys.readouterr().out
    assert main(["equiv", str(a), str(b)]) == 1
    assert "NotEquivalent" in capsys.readouterr().out


def test_spectral_and_mtr_commands(tmp_path, capsys):
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    assert main(["spectral", str(target)]) == 0
    assert "spectral_sets: 16" in capsys.readouterr().out
    assert main(["mtr", str(target)]) == 0
    assert "mtr_count: 2" in capsys.readouterr().out
    assert main(["msd", str(target)]) == 0
    assert "msd_count: 3" in capsys.readouterr().out


def test_non_cocycle_table_exits_two_in_oracle_and_section(tmp_path, capsys):
    """rook2 with the trivial k=2 table and its (t01, swap) entry bumped."""
    base = parse(bundled_rook2_text())
    S, _, names = build_extension(base)
    inv = {v: n for n, v in names.items()}
    t01, swap = singleton(2, 0, 1), PartialBijection(2, 0b11, (1, 0))
    entries = dict(trivial_cocycle(S, 2).entries)
    entries[(t01, swap)] = tuple((p + 1) % 2 for p in entries[(t01, swap)])
    cocycle = [(inv[s], inv[t], list(phase)) for (s, t), phase in entries.items()]
    target = tmp_path / "tampered.json"
    target.write_text(emit(ExtensionDocument(2, 2, base.elements, cocycle, {})))
    assert main(["validate", str(target)]) == 1
    assert "cocycle_identity: FAIL" in capsys.readouterr().out
    for command in ("oracle", "section"):
        assert main([command, str(target)]) == 2
        assert "cartanlab validate" in capsys.readouterr().err


def test_section_command(tmp_path, capsys):
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    assert main(["section", str(target), "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "section: pass" in out


def test_k_override_with_cocycle_rejected(tmp_path, capsys):
    doc = ExtensionDocument(
        atoms=1,
        k=2,
        elements=[("z", {}), ("i", {0: 0})],
        cocycle=[],
    )
    target = tmp_path / "doc.json"
    target.write_text(emit(doc))
    assert main(["oracle", str(target), "--k", "4"]) == 2


def _rook2_edited(tmp_path, name, edit=None):
    raw = json.loads(bundled_rook2_text())
    if edit:
        edit(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "rook", "x"],
        ["gen", "eqrel", "0,a"],
        ["gen", "product", "{rook2}"],
        ["gen", "product", "{missing}", "{rook2}"],
        ["validate", "{rook2}", "--out", "{missing}/r.txt"],
        ["gen", "rook", "2", "--out", "{missing}/r.json"],
        ["oracle", "{rook2}", "--tol", "nan"],
        ["oracle", "{rook2}", "--tol", "inf"],
        ["oracle", "{rook2}", "--tol", "-1"],
        ["validate", "{k_true}"],
        ["validate", "{map_true}"],
        ["validate", "{rook2}", "--guard", "-1"],
        ["gen", "rook", "2", "3"],
        ["gen", "eqrel", "0,1", "2"],
        ["gen", "eqrel", "0,1,2,3,4,5"],
        ["validate", "{ref_list}"],
        ["validate", "{not_utf8}"],
        ["gen", "product", "{not_utf8}", "{rook2}"],
        ["validate", "{deep}"],
    ],
    ids=[
        "rook-size-not-int",
        "eqrel-atom-not-int",
        "product-one-document",
        "product-missing-document",
        "report-out-missing-dir",
        "gen-out-missing-dir",
        "tol-nan",
        "tol-inf",
        "tol-negative",
        "k-boolean",
        "map-value-boolean",
        "guard-negative",
        "rook-extra-parameter",
        "eqrel-extra-parameter",
        "eqrel-block-over-guard",
        "cocycle-ref-not-string",
        "document-not-utf8",
        "product-document-not-utf8",
        "json-nested-too-deeply",
    ],
)
def test_malformed_invocations_exit_two_without_traceback(tmp_path, argv):
    paths = {
        "rook2": _rook2_edited(tmp_path, "rook2.json"),
        "missing": str(tmp_path / "missing"),
        # JSON true is a Python bool, an int: k = 1 and the map 0 -> 1
        "k_true": _rook2_edited(tmp_path, "k_true.json", lambda raw: raw.update(k=True)),
        "map_true": _rook2_edited(tmp_path, "map_true.json", lambda raw: raw["elements"][2].update(map={"0": True})),
        "ref_list": _rook2_edited(
            tmp_path, "ref_list.json", lambda raw: raw.update(cocycle=[{"s": [1], "t": "s000", "phase": []}])
        ),
        "not_utf8": str(tmp_path / "not_utf8.json"),
        "deep": str(tmp_path / "deep.json"),
    }
    (tmp_path / "not_utf8.json").write_bytes(b'{"atoms": \xeb\x9f\xff}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(**paths) for a in argv]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    run_env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab", *argv],
        cwd=tmp_path, env=run_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "input error" in proc.stderr


@pytest.mark.parametrize(
    "command, shape, tol",
    [
        (command, shape, tol)
        for command in ("oracle", "msd", "spectral")
        for shape in (["rook", "3"], ["eqrel", "0,1|2,3"])
        for tol in ("1", "10")
    ]
    + [("msd", ["rook", "3"], "0.75")],
    ids=lambda p: p if isinstance(p, str) else "-".join(p).replace("|", "_"),
)
def test_large_tol_ends_in_a_verdict_without_traceback(tmp_path, command, shape, tol):
    """At a tol past the matrices' norms the spans come out empty; the run
    ends in a FAIL verdict (exit 1) or an input error (exit 2).  The
    document is well formed, so ``spectral`` ends in its verdict, with the
    round trip that failed as the witness."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["gen", *shape, "--out", "doc.json"], [command, "doc.json", "--tol", tol]):
        proc = subprocess.run(
            [sys.executable, "-m", "cartanlab", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode in (1, 2), (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert "FAIL" in proc.stdout or "input error" in proc.stderr
    if command == "spectral":
        assert proc.returncode == 1 and proc.stderr == ""
        assert "round_trip: FAIL\n  witness: spectral set " in proc.stdout


def test_oracle_on_empty_spans_passes_no_check(tmp_path, capsys):
    """At --tol 10 every span of rook2 is empty, and a check over an empty
    span has nothing to decide: no line of the report reads pass."""
    target = tmp_path / "rook2.json"
    target.write_text(emit(generate("rook", 2)))
    assert main(["oracle", str(target), "--tol", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "dim_M: 0 (expected 4)" in lines and "dim_D: 0 (expected 2)" in lines
    assert [line for line in lines if line.endswith("pass")] == []


def test_spectral_guard_error_counts_minimal_elements(tmp_path, capsys):
    """rook3 has 9 minimal elements, so its 2^9 spectral sets need --guard 9."""
    target = tmp_path / "rook3.json"
    target.write_text(emit(generate("rook", 3)))
    for command in ("spectral", "msd", "mtr"):
        assert main([command, str(target), "--guard", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "input error: minimal element count for spectral set enumeration (--guard) of size 9 exceeds guard 8"
            in captured.err
        )
    assert main(["spectral", str(target), "--guard", "9"]) == 0


def test_equiv_guard_error_names_the_flag(tmp_path, capsys):
    """rook3 has 34 elements, so its equivalence search needs --guard 34."""
    target = tmp_path / "rook3.json"
    target.write_text(emit(generate("rook", 3)))
    assert main(["equiv", str(target), str(target), "--guard", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: monoid size for equivalence search (--guard) of size 34 exceeds guard 5" in captured.err
    assert main(["equiv", str(target), str(target), "--guard", "34"]) == 0


def test_guard_comes_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    """No environment variable sets a guard: with one that once lowered
    every guard to 25, equiv of rook3 (34 elements) keeps its default 40."""
    monkeypatch.setenv("CARTANLAB_GUARD", "25")
    target = tmp_path / "rook3.json"
    target.write_text(emit(generate("rook", 3)))
    assert main(["equiv", str(target), str(target)]) == 0
    assert capsys.readouterr().out.startswith("equivalent: YES")


def test_gen_rook_guard_error_names_the_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, guard in ((["gen", "rook", "6"], 5), (["gen", "rook", "4", "--guard", "3"], 3)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        size = argv[2]
        assert f"input error: rook monoid size parameter (--guard) of size {size} exceeds guard {guard}" in captured.err
    assert main(["gen", "rook", "4", "--guard", "4", "--out", "rook4.json"]) == 0


def test_nonpositive_guard_and_extra_gen_parameters_name_the_fault(tmp_path, capsys):
    """Rejected before the command runs, so validate (which reads no guard)
    and spectral (whose guard check would fire later) report the same fault."""
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    for argv in (["validate", str(target), "--guard", "0"], ["spectral", str(target), "--guard", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--guard must be a positive integer, got {argv[-1]}" in captured.err
    assert main(["gen", "rook", "2", "3"]) == 2
    assert "gen rook needs exactly one parameter, got 2" in capsys.readouterr().err
    assert main(["gen", "rook", "2"]) == 0


@pytest.mark.parametrize("command", ["section", "oracle"])
def test_closed_stdout_ends_quietly_after_writing_the_report(tmp_path, command):
    """A reader that closes stdout before the command prints (``| head -1``):
    the child's stdout is a pipe whose read end is already closed, so its
    first write fails.  The command exits 1 without a traceback, and the
    ``--out`` report, written before the prints, equals a normal run's."""
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "cartanlab", command, str(target), "--out"]
    normal = subprocess.run([*argv, "normal.txt"], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert normal.returncode == 0 and normal.stdout, normal.stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(
            [*argv, "closed.txt"], cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120
        )
    finally:
        os.close(write_end)
    assert closed.returncode == 1
    assert closed.stderr == b""
    assert (tmp_path / "closed.txt").read_text() == (tmp_path / "normal.txt").read_text()


def test_oracle_prints_each_key_once(tmp_path, capsys):
    """``dim_M`` and ``dim_D`` come once, first, with their expected values;
    the MASA lines follow without repeating them."""
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    assert main(["oracle", str(target)]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(":")[0] for line in lines]
    assert len(keys) == len(set(keys)) == 18
    assert lines[:2] == ["dim_M: 4 (expected 4)", "dim_D: 2 (expected 2)"]


@pytest.mark.parametrize("tol", ["1e-17", "1e-300"])
@pytest.mark.parametrize("command", ["oracle", "msd", "mtr"])
def test_tol_below_rounding_ends_in_a_verdict(tmp_path, capsys, command, tol):
    """Below the rounding of the matrices D falls outside M and psi's spans
    leave the diagonal's: a FAIL verdict with exit 1, nothing on stderr."""
    target = tmp_path / "rook2.json"
    target.write_text(emit(generate("rook", 2)))
    assert main([command, str(target), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    if command == "oracle":
        assert "masa: FAIL" in lines and lines[-1] == "cartan_pair: FAIL"
        assert "recovery_isomorphism: None" in lines
    else:
        members = [line for line in lines if line.startswith("member ")]
        assert members and all(line.endswith("FAIL") for line in members)
        assert "  witness: span of a spectral set is not diagonal-invariant" in lines


@pytest.mark.parametrize("command", ["msd", "mtr"])
def test_members_over_empty_spans_pass_no_check(tmp_path, capsys, command):
    """At --tol 10 every span of rook2 is empty: no member and no flag reads pass."""
    target = tmp_path / "rook2.json"
    target.write_text(emit(generate("rook", 2)))
    assert main([command, str(target), "--tol", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  dim_algebra: 0" in lines
    assert [line for line in lines if line.endswith("pass")] == []


def test_equiv_of_two_tables_that_are_not_cocycles_is_no(capsys):
    doc = str(FIXTURES.parent / "golden" / "docs" / "rook3_k3_tampered.json")
    assert main(["equiv", doc, doc]) == 1
    assert capsys.readouterr().out == "equivalent: NO (NotEquivalent)\n"


def test_validate_classifies_once(tmp_path, capsys, monkeypatch):
    """classify and check_axioms read one report, kept on the monoid."""
    import cartanlab.semigroup_core as core

    built = []
    real = core.ClassificationReport
    monkeypatch.setattr(core, "ClassificationReport", lambda *args, **kw: built.append(1) or real(*args, **kw))
    target = tmp_path / "rook3.json"
    target.write_text(emit(generate("rook", 3)))
    assert main(["validate", str(target)]) == 0
    assert "validate: pass" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("command", ["msd", "mtr"])
def test_json_members_carry_their_report(tmp_path, capsys, command):
    """Each JSON member holds the member's report: at the default tol its
    dimensions, flags and deviation, the dimensions those of the text
    report; below rounding the witness that the text report prints."""
    target = tmp_path / "rook2.json"
    target.write_text(emit(generate("rook", 2)))
    out = tmp_path / "r.json"
    assert main([command, str(target), "--format", "json", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    members = json.loads(out.read_text())["members"]
    flags = ("multiplicative", "dense", "expectation_unital", "expectation_bimodular", "maximal")
    assert members and all(m["passed"] and all(m[f] for f in flags) for m in members)
    assert all(isinstance(m["max_deviation"], float) and "witness" not in m for m in members)
    dims = [(m["dim_algebra"], m["dim_selfadjoint_part"]) for m in members]
    text_dims = [
        (int(a.split(": ")[1]), int(b.split(": ")[1]))
        for a, b in zip(lines, lines[1:])
        if a.startswith("  dim_algebra: ") and b.startswith("  dim_selfadjoint_part: ")
    ]
    assert dims == text_dims
    assert main([command, str(target), "--tol", "1e-17", "--format", "json", "--out", str(out)]) == 1
    capsys.readouterr()
    members = json.loads(out.read_text())["members"]
    assert members and all(
        m == {"elements": m["elements"], "passed": False, "witness": "span of a spectral set is not diagonal-invariant"}
        for m in members
    )


@pytest.mark.parametrize("key", [" 0", "0 ", "+1", "01", "-0", "1_0", "\u0660", "x", ""])
def test_map_keys_must_be_canonical_atom_indices(key):
    """``int`` reads all of these keys; only the decimal form it prints back
    names an atom (so "1_0" is not read as atom 10)."""
    raw = {"atoms": 2, "k": 1, "elements": [{"name": "a", "map": {key: 1}}]}
    with pytest.raises(FormatError, match="is not an atom index"):
        parse(json.dumps(raw))


def test_negative_map_key_is_out_of_range():
    raw = {"atoms": 2, "k": 1, "elements": [{"name": "a", "map": {"-1": 1}}]}
    with pytest.raises(FormatError, match="atom out of range"):
        parse(json.dumps(raw))


def _json_report(tmp_path, capsys, argv):
    """(exit code, the --format json report, the text lines) of one run."""
    out = tmp_path / "report.json"
    code = main([*argv, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text()), capsys.readouterr().out.splitlines()


def test_validate_json_carries_the_violations_and_axiom_witnesses(tmp_path, capsys):
    """rook3 with the trivial k=2 table and one phase of (swap01, swap01)
    bumped: 47 identity violations, of which the text lists 10."""
    base = generate("rook", "3")
    S, _, names = build_extension(base)
    inv = {v: n for n, v in names.items()}
    swap = PartialBijection(3, 0b111, (1, 0, 2))
    entries = dict(trivial_cocycle(S, 2).entries)
    entries[(swap, swap)] = (1, 0, 0)
    cocycle = [(inv[s], inv[t], list(phase)) for (s, t), phase in entries.items()]
    target = tmp_path / "tampered.json"
    target.write_text(emit(ExtensionDocument(3, 2, base.elements, cocycle, {})))
    code, payload, lines = _json_report(tmp_path, capsys, ["validate", str(target)])
    assert code == 1 and not payload["cocycle_passed"]
    shown = [line.removeprefix("  violated: ") for line in lines if line.startswith("  violated: ")]
    assert payload["cocycle_violations"] == shown and len(shown) == 10
    assert payload["cocycle_violation_count"] == 47
    assert payload["axiom_failures"] == {}

    code, payload, lines = _json_report(tmp_path, capsys, ["validate", str(FIXTURES / "missing_swap.json")])
    assert code == 1 and payload["cocycle_violation_count"] == 0 and payload["cocycle_violations"] == []
    failed = {line.split(": ")[0]: line.split(": ", 1)[1] for line in lines if ": FAIL " in line}
    assert sorted(payload["axiom_failures"]) == sorted(failed) == ["boolean_c", "complete_d"]
    for name, item in payload["axiom_failures"].items():
        note = f" ({item['note']})" if item["note"] else ""
        assert failed[name] == f"FAIL witness={item['witness']}{note}"


def test_section_json_carries_the_witnesses(tmp_path, capsys, monkeypatch):
    """A section with one lift's phase bumped fails; the JSON report carries
    the witnesses the text prints, and a passing one carries none."""
    from cartanlab import _section

    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    code, payload, _ = _json_report(tmp_path, capsys, ["section", str(target), "--k", "2"])
    assert code == 0 and payload["witnesses"] == {}

    real = _section.order_preserving_section

    def bumped(ext):
        values = dict(real(ext).values)
        swap = PartialBijection(2, 0b11, (1, 0))
        values[swap] = PhasedElement(swap, tuple((p + 1) % ext.k for p in values[swap].phases))
        return _section.Section(values)

    monkeypatch.setattr(_section, "order_preserving_section", bumped)
    code, payload, lines = _json_report(tmp_path, capsys, ["section", str(target), "--k", "2"])
    shown = dict(line.strip().split(" witness: ") for line in lines if " witness: " in line)
    assert code == 1 and shown and payload["witnesses"] == shown


def test_equiv_json_carries_the_element_pairs(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(emit(generate("rook", "2")))
    code, payload, lines = _json_report(tmp_path, capsys, ["equiv", str(a), str(a), "--k", "3"])
    assert code == 0 and f"element_pairs: {payload['element_pairs']}" in lines
    assert payload["element_pairs"] == 1 + 4 * 3 + 2 * 9


def test_validate_json_carries_the_closure_failure(tmp_path, capsys):
    raw = {"atoms": 3, "k": 1, "elements": [{"name": "a", "map": {"0": 1}}, {"name": "b", "map": {"1": 2}}]}
    target = tmp_path / "open.json"
    target.write_text(json.dumps(raw))
    code, payload, lines = _json_report(tmp_path, capsys, ["validate", str(target)])
    assert code == 1 and lines == [f"closure: FAIL ({payload['closure_error']})"]
    assert payload["closure"] == "fail"


def _write_doc(tmp_path, name, atoms, maps):
    doc = ExtensionDocument(atoms, 2, [(f"m{i}", m) for i, m in enumerate(maps)])
    path = tmp_path / f"{name}.json"
    path.write_text(emit(doc))
    return str(path)


def test_equiv_refuses_a_document_that_is_not_closed(tmp_path, capsys):
    """All nine one-point maps on three atoms and 0 -> 1, 1 -> 2, but not its
    inverse: equiv exits 2 with the input error section prints, with or
    without --k, and the API raises the monoid's closure witness."""
    maps = [{y: x} for y in range(3) for x in range(3)] + [{0: 1, 1: 2}]
    doc = _write_doc(tmp_path, "not_closed", 3, maps)
    assert main(["section", doc]) == 2
    out, section_err = capsys.readouterr()
    assert out == "" and "'dagger'" in section_err
    for extra in ([], ["--k", "2"]):
        assert main(["equiv", doc, doc, *extra]) == 2
        assert capsys.readouterr() == ("", section_err)

    S = build_extension(parse(pathlib.Path(doc).read_text()))[0]
    assert S.closure_witness() is not None
    with pytest.raises(ClosureError) as exc:
        extensions_equivalent(Extension(S, 2), Extension(S, 2))
    assert exc.value.witness == S.closure_witness()


def test_missing_one_point_map_is_named(tmp_path, capsys):
    """rook2 acting on the blocks {0, 1} and {2, 3} holds no one-point map.
    The coboundary needs none, so equiv answers; the oracle's lambda
    matrices do, and it exits 2 naming what is missing."""
    blocks = [{}, {0: 0, 1: 1}, {2: 2, 3: 3}, {0: 2, 1: 3}, {2: 0, 3: 1}, {0: 2, 1: 3, 2: 0, 3: 1}]
    doc = _write_doc(tmp_path, "blocks", 4, blocks)
    assert main(["equiv", doc, doc]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "equivalent: YES" and err == ""
    assert main(["oracle", doc]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: relation pair has no one-point map in S\n"
