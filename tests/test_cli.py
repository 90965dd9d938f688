import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import pytest

from cartanlab.cli import (
    ExtensionDocument,
    build_extension,
    emit,
    generate,
    main,
    parse,
)
from cartanlab.errors import FormatError, SizeGuardError
from cartanlab.extension import trivial_cocycle
from cartanlab.semigroup_core import PartialBijection, singleton

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
    assert "'a'" in str(err.value)


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
    "argv, env",
    [
        (["validate", "{rook2}"], {"CARTANLAB_GUARD": "abc"}),
        (["gen", "rook", "x"], {}),
        (["gen", "eqrel", "0,a"], {}),
        (["gen", "product", "{rook2}"], {}),
        (["gen", "product", "{missing}", "{rook2}"], {}),
        (["validate", "{rook2}", "--out", "{missing}/r.txt"], {}),
        (["gen", "rook", "2", "--out", "{missing}/r.json"], {}),
        (["oracle", "{rook2}", "--tol", "nan"], {}),
        (["oracle", "{rook2}", "--tol", "inf"], {}),
        (["oracle", "{rook2}", "--tol", "-1"], {}),
        (["validate", "{k_true}"], {}),
        (["validate", "{map_true}"], {}),
        (["validate", "{rook2}", "--guard", "-1"], {}),
        (["validate", "{rook2}"], {"CARTANLAB_GUARD": "0"}),
        (["gen", "rook", "2", "3"], {}),
        (["gen", "eqrel", "0,1", "2"], {}),
    ],
    ids=[
        "guard-env-not-int",
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
        "guard-env-zero",
        "rook-extra-parameter",
        "eqrel-extra-parameter",
    ],
)
def test_malformed_invocations_exit_two_without_traceback(tmp_path, argv, env):
    paths = {
        "rook2": _rook2_edited(tmp_path, "rook2.json"),
        "missing": str(tmp_path / "missing"),
        # JSON true is a Python bool, an int: k = 1 and the map 0 -> 1
        "k_true": _rook2_edited(tmp_path, "k_true.json", lambda raw: raw.update(k=True)),
        "map_true": _rook2_edited(tmp_path, "map_true.json", lambda raw: raw["elements"][2].update(map={"0": True})),
    }
    argv = [a.format(**paths) for a in argv]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    run_env = {k: v for k, v in os.environ.items() if k != "CARTANLAB_GUARD"}
    run_env.update(env, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab", *argv],
        cwd=tmp_path, env=run_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "input error" in proc.stderr


def test_nonpositive_guard_and_extra_gen_parameters_name_the_fault(tmp_path, capsys, monkeypatch):
    """Rejected before the command runs, so validate (which reads no guard)
    and spectral (whose guard check would fire later) report the same fault."""
    target = tmp_path / "rook2.json"
    target.write_text(bundled_rook2_text())
    monkeypatch.delenv("CARTANLAB_GUARD", raising=False)
    for argv in (["validate", str(target), "--guard", "0"], ["spectral", str(target), "--guard", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--guard must be a positive integer, got {argv[-1]}" in captured.err
    monkeypatch.setenv("CARTANLAB_GUARD", "-2")
    assert main(["spectral", str(target)]) == 2
    assert "CARTANLAB_GUARD must be a positive integer, got -2" in capsys.readouterr().err
    monkeypatch.delenv("CARTANLAB_GUARD")
    assert main(["gen", "rook", "2", "3"]) == 2
    assert "gen rook needs exactly one parameter, got 2" in capsys.readouterr().err
    assert main(["gen", "rook", "2"]) == 0
