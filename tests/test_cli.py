import json
import subprocess
import sys
from pathlib import Path

import pytest

import rookhl
from rookhl import rook, symfunc
from rookhl.cli import main
from rookhl.rook import hl_coefficients
from rookhl.symfunc import SymFunc


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_hl_p_golden(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2,4,4,5",
                             "--what", "X", "--basis", "P"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(3,2): 1 + 2q + q^2"
    assert lines[1] == "(3,1,1): 1 + 3q + 3q^2 + q^3"
    assert lines[-1].startswith("(1,1,1,1,1): 1 + 4q + 9q^2")


def test_expand_monomial_default(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2"])
    assert code == 0
    assert out == "(1,1): 1 + q\n"


def test_expand_llt_schur(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2",
                             "--what", "LLT", "--basis", "s"])
    assert code == 0
    assert out == "(2): 1\n(1,1): q\n"


def test_expand_empty_path(capsys):
    code, out = run(capsys, ["expand", "--heights", "-"])
    assert code == 0
    assert out == "(): 1\n"


def test_expand_json(capsys):
    code, out = run(capsys, ["expand", "--heights", "2,2,4,4,5",
                             "--basis", "P", "--json"])
    assert code == 0
    f = SymFunc.from_json(json.loads(out))
    assert f == SymFunc(5, "hl_p", hl_coefficients((2, 2, 4, 4, 5)))


def test_expand_cache_dir(capsys, tmp_path, monkeypatch):
    # Only LLT in the P basis needs Kostka-Foulkes, so only it touches the
    # cache; a Schur query neither writes a file nor takes any charge.
    calls = []
    real = symfunc.kostka_foulkes
    monkeypatch.setattr(symfunc, "kostka_foulkes",
                        lambda la, mu: calls.append(la) or real(la, mu))
    for n in (3, 4):
        symfunc._TRANSITIONS.pop(n, None)
    code, _ = run(capsys, ["expand", "--heights", "2,3,4,4",
                           "--basis", "s", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    assert calls == []
    argv = ["expand", "--heights", "1,2,3", "--what", "LLT", "--basis", "P",
            "--cache-dir", str(tmp_path)]
    code, first = run(capsys, argv)
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["transitions_3.json"]
    assert calls
    calls.clear()
    symfunc._TRANSITIONS.pop(3, None)
    code, again = run(capsys, argv)
    assert code == 0
    assert again == first
    assert calls == []


def test_tampered_cache_is_a_usage_error(capsys, tmp_path):
    argv = ["expand", "--heights", "1,2,3", "--what", "LLT", "--basis", "P",
            "--cache-dir", str(tmp_path)]
    code, out = run(capsys, argv)
    assert code == 0
    assert "(2,1): 2 + q" in out.splitlines()
    path = tmp_path / "transitions_3.json"
    obj = json.loads(path.read_text())
    obj["kf"][0][1] = {"min_exp": 0, "coeffs": [7]}
    path.write_text(json.dumps(obj))
    symfunc._TRANSITIONS.pop(3, None)
    for argv in (argv, ["verify", "--n-max", "3", "--identity", "main",
                        "--cache-dir", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--cache-dir: {path}: kf[0][1]" in captured.err


def test_consistently_tampered_cache_is_a_usage_error(capsys, tmp_path):
    # kostka and kf agree with each other at q = 1 here, but not with the
    # horizontal-strip count: the old loader printed (2,1): 1 + 2q.
    argv = ["expand", "--heights", "1,2,3", "--what", "LLT", "--basis", "P",
            "--cache-dir", str(tmp_path)]
    assert run(capsys, argv)[0] == 0
    path = tmp_path / "transitions_3.json"
    obj = json.loads(path.read_text())
    obj["kostka"][0][1] = 2
    obj["kf"][0][1] = {"min_exp": 1, "coeffs": [2]}
    path.write_text(json.dumps(obj))
    symfunc._TRANSITIONS.pop(3, None)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--cache-dir: {path}: kostka[0][1] is 2" in captured.err


def test_verify_cache_dir_holds_only_converted_degrees(capsys, tmp_path):
    code, _ = run(capsys, ["verify", "--identity", "principal", "--n-max",
                           "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    code, _ = run(capsys, ["verify", "--identity", "mult", "--n-max", "6",
                           "--cache-dir", str(tmp_path / "mult")])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "mult").iterdir()) == \
        [f"transitions_{n}.json" for n in range(6)]


def test_rook_list_golden(capsys):
    code, out = run(capsys, ["rook", "--heights", "2,2,4,4,5",
                             "--type", "3,2", "--list"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "(3,2): 1 + 2q + q^2"
    placements = lines[:-1]
    assert len(placements) == 4
    fcs = sorted(int(l.rsplit("fc=", 1)[1]) for l in placements)
    assert fcs == [0, 1, 1, 2]
    cells = [json.loads(l.split(" type=")[0]) for l in placements]
    assert [[1, 3], [2, 4], [3, 5]] in cells
    assert all(l.split(" type=")[1].startswith("3,2 ") for l in placements)


def test_rook_all_types(capsys):
    code, out = run(capsys, ["rook", "--heights", "1,2"])
    assert code == 0
    assert out == "(2): 1\n(1,1): q\n"


def test_rook_type_size_mismatch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rook", "--heights", "1,2", "--type", "3"])
    assert exc.value.code == 2


def test_list_dyck(capsys):
    code, out = run(capsys, ["list-dyck", "--n", "3"])
    assert code == 0
    assert out.splitlines() == ["1,2,3", "1,3,3", "2,2,3", "2,3,3", "3,3,3"]
    code, out = run(capsys, ["list-dyck", "--n", "0"])
    assert code == 0
    assert out == "-\n"


def test_verify_text(capsys):
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verified  main  heights=-"
    assert lines[-1] == "9 checks: all verified"


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3",
                             "--json"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["status"] == "verified" for r in reports)
    assert reports[2]["instance"] == "heights=1,2"
    assert reports[3]["instance"] == "heights=2,2"


def test_verify_finds_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(
        rook, "free_cells",
        lambda gamma, placement: rook._free_cells(gamma, placement,
                                                  gate=False))
    code, out = run(capsys, ["verify", "--identity", "main", "--n-max", "3"])
    assert code == 1
    assert "counterexample" in out
    assert "lhs:" in out and "rhs:" in out
    assert out.splitlines()[-1].endswith("counterexamples")


def test_verify_jobs_equal_output(capsys):
    code1, out1 = run(capsys, ["verify", "--identity", "llt",
                               "--n-max", "3"])
    code2, out2 = run(capsys, ["verify", "--identity", "llt",
                               "--n-max", "3", "--jobs", "2"])
    assert (code1, out1) == (code2, out2)


def test_verify_rejects_bad_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "bogus", "--n-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "3", "--jobs", "0"])
    assert exc.value.code == 2


def test_oracle(capsys):
    code, out = run(capsys, ["oracle", "hl", "--mu", "2",
                             "--xs", "2,3", "--q", "1/2"])
    assert code == 0
    assert out == "16\n"
    code, out = run(capsys, ["oracle", "hl", "--mu", "1,1",
                             "--xs", "2,3", "--q", "5/7"])
    assert out == "6\n"


def test_oracle_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "hl", "--mu", "2", "--xs", "2,2", "--q", "1/2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "hl", "--mu", "2", "--xs", "2,3", "--q", "1/0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "hl", "--mu", "1,2", "--xs", "2,3", "--q", "1"])
    assert exc.value.code == 2


def test_bad_heights_names_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--heights", "2,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--heights" in err and "column 2" in err


def test_module_entry_point():
    # Run from the directory that holds the imported package, so the child
    # finds it whether it came from PYTHONPATH, pytest's pythonpath or an
    # installation.
    proc = subprocess.run(
        [sys.executable, "-m", "rookhl", "list-dyck", "--n", "2"],
        capture_output=True, text=True,
        cwd=Path(rookhl.__file__).resolve().parents[1])
    assert proc.returncode == 0
    assert proc.stdout == "1,2\n2,2\n"
