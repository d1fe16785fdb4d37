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


@pytest.mark.parametrize("desc", [
    {"p": 0, "alphas": {"kind": "constant", "value": 1.0}},
    {"p": 1, "alphas": {"kind": "list", "values": [1.0, 0.0, 2.0]}}],
    ids=["p0", "list_alpha0"])
def test_invalid_generator_description_exits_2(desc, tmp_path, capsys):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(desc))
    code = main(["spectrum", "--input", str(path), "--order", "2"])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG and out == ""
    assert "configuration error: invalid generator description" in err


def test_numeric_error_exit(tmp_path, capsys):
    # T's entries near 1e80 overflow the double tables, and the emitter
    # refuses their non-finite weights
    with np.errstate(all="ignore"):
        code = main(["spectrum", "--input", _large_alphas(tmp_path, 1),
                     "--order", "10"])
    _, err = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert "non-finite value cannot be serialized" in err


# double weights that miss their measure's total mass: an eigenvalue pair
# at 2.0 whose weights come out as 0.263 and 1.1e-44 (0.25 each in
# extended precision), and a p = 3 table with a weight of -1.04e5
_PAIR_P1 = {"p": 1, "alphas": {"kind": "periodic",
                               "values": [1.0, 1.0, 1e-12, 1.0]}}
_SPLIT_P3 = {"p": 3, "alphas": {"kind": "periodic",
                                "values": [2.0, 1e-10, 1.0]}}


@pytest.mark.parametrize("desc", [_PAIR_P1, _SPLIT_P3], ids=["p1", "p3"])
def test_double_weights_off_their_total_mass_exit_3(desc, tmp_path, capsys,
                                                    monkeypatch):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(desc))
    monkeypatch.delenv("MULTIHESS_PRECISION", raising=False)
    code = main(["spectrum", "--input", str(path), "--order", "10"])
    out, err = capsys.readouterr()
    assert code == EXIT_NUMERIC and out == ""
    assert "the weights of measure 1 sum to" in err
    assert "use extended precision" in err


def test_extended_weights_keep_their_total_mass(tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(_PAIR_P1))
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, doc = _run(["spectrum", "--input", str(path), "--order", "10"],
                     capsys)
    assert code == EXIT_OK
    assert doc["total_masses"] == pytest.approx([1.0], rel=1e-14)


def test_spectrum_not_separable_in_double_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": 2, "alphas": {
        "kind": "periodic", "values": [1.0, 1e-8]}}))
    monkeypatch.delenv("MULTIHESS_PRECISION", raising=False)
    code = main(["spectrum", "--input", str(path), "--order", "20"])
    out, err = capsys.readouterr()
    assert code == EXIT_NUMERIC and out == ""
    assert "numeric error: " in err and "not separable" in err


_NEGATIVE = "argument --order: must be >= 0"
_FEW_NODES = "a rule for 2 measures needs at least 2 nodes"


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--order", "-3"], _NEGATIVE),
    (["verify", "--order", "-1"], _NEGATIVE),
    (["chain", "--order", "-2"], _NEGATIVE),
    (["simulate", "--order", "-1", "--steps", "3", "--trials", "5",
      "--seed", "1"], _NEGATIVE),
    (["quadrature", "--measure", "1", "--nodes", "1"], _FEW_NODES),
    (["quadrature", "--measure", "1", "--nodes", "0"], _FEW_NODES)],
    ids=["spectrum", "verify", "chain", "simulate", "nodes1", "nodes0"])
def test_sizes_below_range_are_configuration_errors(argv, message, tmp_path,
                                                    capsys):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": 2, "alphas": {
        "kind": "constant", "value": 1.0}}))
    code = main(argv + ["--input", str(path)])
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG and out == ""
    assert message in err


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


def _large_alphas(tmp_path, p):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": p, "alphas": {
        "kind": "uniform", "low": 1e40, "high": 2e40, "seed": 3}}))
    return str(path)


def test_verify_double_never_ok_on_overflowing_input(tmp_path, capsys,
                                                     monkeypatch):
    # T's entries near 1e80 overflow the double tables; verify once
    # printed "ok": true on a NaN spectrum
    monkeypatch.setenv("MULTIHESS_PRECISION", "double")
    with np.errstate(all="ignore"):
        code, doc = _run(["verify", "--input", _large_alphas(tmp_path, 1),
                          "--order", "10"], capsys)
    assert code in (EXIT_NUMERIC, EXIT_VERIFY)
    assert doc is None or doc["ok"] is False


@pytest.mark.parametrize("p", [1, 2, 3])
def test_verify_extended_scales_moments_on_large_alphas(p, tmp_path, capsys,
                                                        monkeypatch):
    # the moments of T reach 1e800 here; those of T / 2^shift do not
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, doc = _run(["verify", "--input", _large_alphas(tmp_path, p),
                      "--order", "10"], capsys)
    assert code == EXIT_OK
    assert doc["ok"] is True and doc["failures"] == []


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_quadrature_check_scales_moments_on_large_alphas(p, precision,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    # the moments of T overflow double range here; the check compares
    # those of T / 2^shift, as verify does (the double spectrum's float
    # recurrences overflow on the way to its high-precision route)
    monkeypatch.setenv("MULTIHESS_PRECISION", precision)
    with np.errstate(all="ignore"):
        code, doc = _run(["quadrature", "--input",
                          _large_alphas(tmp_path, p), "--measure", "1",
                          "--nodes", "8", "--check"], capsys)
    assert code == EXIT_OK
    errors = doc["exactness_errors"]
    assert list(errors) == [str(n) for n in range(doc["degree"] + 3)]
    assert max(errors[str(n)] for n in range(doc["degree"] + 1)) <= 1e-13


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_verify_checks_fail_on_nan_tables(precision, gen_file, capsys,
                                          monkeypatch):
    from multihess import cli
    real = cli.decompose

    def nan_tables(*args, **kwargs):
        dec = real(*args, **kwargs)
        with np.errstate(invalid="ignore"):
            dec.lams, dec.mu = dec.lams * np.nan, dec.mu * np.nan
            dec.U = dec.U * np.nan
        return dec

    monkeypatch.setattr(cli, "decompose", nan_tables)
    monkeypatch.setenv("MULTIHESS_PRECISION", precision)
    code, doc = _run(["verify", "--input", gen_file, "--order", "6"], capsys)
    assert code == EXIT_VERIFY and doc["ok"] is False
    assert doc["failures"][:3] == [
        "biorthogonality residual nan",
        "spectrum is not positive and strictly ordered",
        "a Christoffel weight is not positive"]
    assert doc["failures"][3:] == ["moment mismatch a=1 n=0",
                                   "moment mismatch a=2 n=0"]


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("p,order", [(1, 0), (2, 0), (3, 0), (3, 1)])
def test_every_command_at_low_orders(p, order, precision, tmp_path, capsys,
                                     monkeypatch):
    # order 0 works whenever it is at least p - 1; below that the commands
    # that need the weights of p measures name the bound
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": p, "alphas": {
        "kind": "uniform", "low": 0.5, "high": 2.0, "seed": 3}}))
    monkeypatch.setenv("MULTIHESS_PRECISION", precision)
    common = ["--input", str(path)]
    o = ["--order", str(order)]
    below = order < p - 1
    for argv in (["spectrum"] + o, ["verify"] + o, ["chain"] + o):
        code = main(argv + common)
        out, err = capsys.readouterr()
        if below:
            assert code == EXIT_CONFIG and out == ""
            assert f"order {order} is below p - 1 = {p - 1}" in err
        else:
            assert code == EXIT_OK and json.loads(out)["order"] == order
    code, doc = _run(["simulate", "--steps", "3", "--trials", "50",
                      "--seed", "1"] + o + common, capsys)
    assert code == EXIT_OK and sum(doc["counts"]) == 50
    code = main(["quadrature", "--measure", "1", "--nodes", str(order + 1),
                 "--check"] + common)
    if order + 1 < p:
        assert code == EXIT_CONFIG
        assert f"needs at least {p} nodes" in capsys.readouterr().err
    else:
        assert code == EXIT_OK


def test_quadrature_honours_extended_precision(tmp_path, capsys,
                                               monkeypatch):
    # the double weights of the top nodes lose relative accuracy here and
    # the high moments miss by 2.5e-6; the extended tables do not
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"p": 1, "alphas": {
        "kind": "uniform", "low": 0.5, "high": 2.0, "seed": 118}}))
    argv = ["quadrature", "--input", str(path), "--measure", "1",
            "--nodes", "20", "--check"]
    monkeypatch.delenv("MULTIHESS_PRECISION", raising=False)
    code, double = _run(argv, capsys)
    assert code == EXIT_OK
    assert max(double["exactness_errors"].values()) > 1e-6
    monkeypatch.setenv("MULTIHESS_PRECISION", "extended")
    code, ext = _run(argv, capsys)
    assert code == EXIT_OK and ext["degree"] == double["degree"] == 39
    assert max(ext["exactness_errors"].values()) < 1e-13
    assert np.allclose(ext["nodes"], double["nodes"], rtol=1e-12, atol=0)
