import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whhankel
from whhankel.cli import main

FAST = ["--T", "25", "--h", "0.1", "--no-stability"]


def test_parse_command(capsys):
    assert main(["parse", "chi^-1"]) == 0
    out = capsys.readouterr().out
    assert "nu = 0" in out and "n  = -1" in out and "xi = +1" in out


def test_parse_json_output(capsys):
    assert main(["parse", "chi", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matching"] is True and payload["n"] == 1


def test_parse_real_pole_exit_code(capsys):
    assert main(["parse", "(t-1)/(t+1)"]) == 3
    assert "RealPoleError" in capsys.readouterr().err


def test_parse_syntax_exit_code(capsys):
    assert main(["parse", "2 + * 3"]) == 2


def test_factorize_command(capsys):
    assert main(["factorize", "(t-2i)/(t+3i)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1 and payload["residual"] < 1e-10


def test_classify_command(capsys):
    a = "(t+2i)/(t-2i)"
    assert main(["classify", a, f"({a})*chi", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["plus"]["ker"] == "1" and payload["plus"]["coker"] == "0"
    assert payload["minus"]["ker"] == "1"


def test_classify_not_matching_exit(capsys):
    assert main(["classify", "chi", "2*chi"]) == 5


def test_classify_takes_no_grid_flags():
    # classify reads no grid, so a grid flag would select nothing
    for flag, value in (("--T", "25"), ("--h", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "chi", "chi^-1", flag, value])
        assert exc.value.code == 2


def test_flags_are_not_abbreviated():
    # --h is no flag of parse or factorize, and no prefix of --help there;
    # --work is no flag of catalog, and no prefix of --workers
    for args in (["parse", "chi", "--h", "0.1"], ["factorize", "chi", "--h", "0.1"],
                 ["catalog", "shipped", "--work", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_verify_command_passes(capsys):
    a = "(t-2i)*(t+1i)/((t+2i)*(t-1i))"
    assert main(["verify", a, f"({a})*chi", *FAST]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail" not in out


@pytest.mark.parametrize("rank_tol, dim", [("1e-8", 1), ("1e-12", 0)])
def test_kernel_basis_export(tmp_path, capsys, rank_tol, dim):
    # --rank-tol reaches the oracle: a cut of 1e-12 lies below the kernel
    # vector's singular value on this grid
    out = tmp_path / "basis.json"
    rc = main(["kernel-basis", "chi^-1", "0", "--sign", "plus", "--out", str(out),
               "--rank-tol", rank_tol, *FAST])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["dim"] == dim
    assert len(payload["basis"]) == dim
    if dim:
        node, re, im = payload["basis"][0][0]
        assert abs(node - 0.05) < 1e-12


def test_kernel_basis_takes_no_json_flag():
    # kernel-basis always writes JSON, so a --json flag would select nothing
    with pytest.raises(SystemExit) as exc:
        main(["kernel-basis", "chi^-1", "0", "--sign", "plus", "--json", *FAST])
    assert exc.value.code == 2


def test_catalog_roundtrip(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text(
        "# tiny catalog\n"
        'ok_scalar | chi^-1 | | {"ker": "1", "coker": "0"} |\n'
        'ok_pair | (t+2i)/(t-2i) | ((t+2i)/(t-2i))*chi | '
        '{"plus": {"ker": "1", "coker": "0"}} |\n'
    )
    assert main(["catalog", str(cat), *FAST]) == 0
    out = capsys.readouterr().out
    assert "2/2 entries passed" in out


def test_catalog_json_deterministic(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("entry | chi^-1 | |  |\n")
    assert main(["catalog", str(cat), "--json", *FAST]) == 0
    first = capsys.readouterr().out
    assert main(["catalog", str(cat), "--json", *FAST]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_negative_controls_fail_with_nonzero_exit(capsys):
    rc = main(["catalog", "negative-controls", *FAST])
    assert rc == 7
    out = capsys.readouterr().out
    assert "NotMatching" in out
    assert "expected 2, classified 1" in out


def test_duplicate_catalog_names_rejected(tmp_path, capsys):
    cat = tmp_path / "cat.txt"
    cat.write_text("x | chi | |  |\nx | chi | |  |\n")
    assert main(["catalog", str(cat), *FAST]) == 2
    assert "duplicate entry name" in capsys.readouterr().err


def test_missing_catalog_file(capsys):
    assert main(["catalog", "/nonexistent/cat.txt", *FAST]) == 2


@pytest.mark.parametrize("module", ["scipy", "multiprocessing", "numpy.random", "numpy.fft"])
def test_import_does_not_load(module):
    # scipy is a test-only dependency; multiprocessing (the catalog's pool) and
    # numpy.random (the oracle's certificates) load when first used, and
    # numpy.fft is not used: what the import leaves out keeps the start-up
    # time of every command down
    src = str(Path(whhankel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, whhankel.catalog, whhankel.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
