"""End-to-end checks of the command-line interface."""

import json
import os

import numpy as np
import pytest

from multihess.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY,
                           main)


@pytest.fixture
def gen_file(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "p": 2,
        "alphas": {"kind": "uniform", "low": 0.5, "high": 2.0, "seed": 80},
    }))
    return str(path)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_spectrum_command(gen_file, capsys, tmp_path):
    csv_path = str(tmp_path / "spec.csv")
    code, doc = _run(["spectrum", "--input", gen_file, "--order", "8",
                      "--csv", csv_path], capsys)
    assert code == EXIT_OK
    lams = np.array(doc["eigenvalues"])
    assert lams.min() > 0 and np.all(np.diff(lams) < 0)
    assert np.array(doc["weights"]).min() > 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0].startswith("k,lambda")
    assert len(lines) == 10


def test_spectrum_deterministic_output(gen_file, capsys):
    code1, doc1 = _run(["spectrum", "--input", gen_file, "--order", "6"],
                       capsys)
    code2, doc2 = _run(["spectrum", "--input", gen_file, "--order", "6"],
                       capsys)
    assert code1 == code2 == EXIT_OK
    assert doc1 == doc2


def test_spectrum_extended_precision_env(gen_file, capsys, monkeypatch):
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, doc = _run(["spectrum", "--input", gen_file, "--order", "6"],
                     capsys)
    assert code == EXIT_OK
    assert doc["precision"] == "extended"
    monkeypatch.setenv("MULTIHESS_PRECISION", "bogus")
    code, _ = _run(["spectrum", "--input", gen_file, "--order", "6"], capsys)
    assert code == EXIT_CONFIG


def test_quadrature_command(gen_file, capsys):
    code, doc = _run(["quadrature", "--input", gen_file, "--measure", "1",
                      "--nodes", "4", "--check"], capsys)
    assert code == EXIT_OK
    assert doc["degree"] == 5
    errs = doc["exactness_errors"]
    assert all(errs[str(n)] < 1e-9 for n in range(6))
    assert errs[str(6)] > 1e-9


def test_chain_command(gen_file, capsys, tmp_path):
    csv_path = str(tmp_path / "factors.csv")
    code, doc = _run(["chain", "--input", gen_file, "--order", "10",
                      "--factors", "--csv", csv_path], capsys)
    assert code == EXIT_OK
    P = np.array(doc["transition_matrix"])
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert doc["recurrence"]["recurrent"] is True
    pi = np.array(doc["stationary"])
    assert abs(pi.sum() - 1.0) < 1e-10
    assert open(csv_path).readline().startswith("# kind=stochastic_factors")


def test_simulate_command(gen_file, capsys):
    argv = ["simulate", "--input", gen_file, "--order", "6", "--steps", "8",
            "--trials", "20000", "--seed", "17"]
    code, doc = _run(argv, capsys)
    assert code == EXIT_OK
    assert sum(doc["counts"]) == 20000
    assert doc["max_abs_z"] < 5.0
    _, doc2 = _run(argv, capsys)
    assert doc == doc2


def test_verify_command(gen_file, capsys):
    code, doc = _run(["verify", "--input", gen_file, "--order", "10"],
                     capsys)
    assert code == EXIT_OK
    assert doc["ok"] is True and doc["failures"] == []
    # an unreachable tolerance turns the same checks into a verify failure
    code, doc = _run(["verify", "--input", gen_file, "--order", "10",
                      "--tolerance", "1e-30"], capsys)
    assert code == EXIT_VERIFY
    assert doc["ok"] is False and doc["failures"]


def test_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _ = _run(["spectrum", "--input", missing, "--order", "5"], capsys)
    assert code == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(["spectrum", "--input", str(bad), "--order", "5"], capsys)
    assert code == EXIT_CONFIG
    code, _ = _run(["bogus-subcommand"], capsys)
    assert code == EXIT_CONFIG


def test_numeric_error_exit(tmp_path, capsys):
    # parameters whose support crosses 1 cannot build the semi-infinite
    # normalization; here: order below 0 triggers numeric validation
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "p": 1,
        "alphas": {"kind": "constant", "value": 1.0},
    }))
    code, _ = _run(["spectrum", "--input", str(path), "--order", "-3"],
                   capsys)
    assert code == EXIT_NUMERIC


def test_output_file(gen_file, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    code = main(["spectrum", "--input", gen_file, "--order", "5",
                 "--output", out])
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["command"] == "spectrum"


def test_chain_extended_precision(tmp_path, capsys, monkeypatch):
    # the stationary mass at state 0 is about 1.47e-13, so the vector is
    # checked entry by entry against the double one as well as summed
    from multihess import cli
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "p": 3,
        "alphas": {"kind": "uniform", "low": 0.5, "high": 2.0, "seed": 7},
    }))
    built, real = [], cli.decompose

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "decompose", spy)
    argv = ["chain", "--input", str(path), "--order", "30"]
    monkeypatch.delenv("MULTIHESS_PRECISION", raising=False)
    code, double = _run(argv, capsys)
    assert code == EXIT_OK and not built[-1].use_mp
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, ext = _run(argv, capsys)
    assert code == EXIT_OK
    assert len(built) == 2 and built[-1].use_mp and built[-1].dps >= 50
    pi = np.array(ext["stationary"])
    assert abs(pi.sum() - 1.0) <= 1e-14
    assert np.allclose(pi, double["stationary"], rtol=1e-3, atol=0.0)
    assert ext["recurrence"]["recurrent"] is True
    assert ext["transition_matrix"] == double["transition_matrix"]


@pytest.mark.parametrize("p,low,high,seed,order", [
    (2, 0.1, 10.0, 5, 40), (3, 0.05, 20.0, 1, 30)])
def test_verify_extended_sizes_digits_by_both_products(
        p, low, high, seed, order, tmp_path, capsys, monkeypatch):
    # Here max|U| reaches 5e46 and the terms of UW dwarf those of WU; with
    # digits sized by |W||U| alone the UW residual was about 2e-4.
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": p, "alphas": {
        "kind": "uniform", "low": low, "high": high, "seed": seed}}))
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, doc = _run(["verify", "--input", str(path), "--order",
                      str(order)], capsys)
    assert code == EXIT_OK
    assert doc["ok"] is True and doc["failures"] == []
