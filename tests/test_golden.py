"""Byte-identity of CLI outputs.

Each case runs one `multihess.cli.main` request and compares the SHA-256
of its stdout (followed by its CSV file, when it writes one) with a digest
recorded from the program before the band-recurrence kernel and the
multisection of the interlacing bootstrap (the `simulate` cases: before
the windowed Monte Carlo step; the last three extended cases: before the
Newton polish stopped at convergence).  Changes meant to keep every
float operation must leave these digests alone; a change that
deliberately alters an output (a new field, the version string, another
root route) has to record them again.
"""

import hashlib
import json

import pytest

from multihess.cli import EXIT_OK, main

# (name, p, uniform seed, argv after --input, precision, digest)
CASES = [
    ("spectrum_p1", 1, 11, ["spectrum", "--order", "20"], None,
     "28a6584e707e9ca78b8050c950f01451370714fda946507fe9ee83b9ca511277"),
    ("spectrum_p2", 2, 12, ["spectrum", "--order", "30"], None,
     "e0b41441990fdbf8eaba194c3032efe12b0a6354aa770680ef95b10c4da41e97"),
    ("spectrum_p3", 3, 13, ["spectrum", "--order", "35"], None,
     "4b1cf5879f3660a3b56bccd750e65d4930afd4b45818ef286d1b6570aab61ccd"),
    ("spectrum_p2_csv", 2, 14, ["spectrum", "--order", "16", "--csv"], None,
     "16206dd14501780159a4e23278553ab036383b7d45edbbe7f427d5862c10ecbd"),
    ("quadrature_p1", 1, 15,
     ["quadrature", "--measure", "1", "--nodes", "14", "--check"], None,
     "64523d9741411401b240d0ee8134957433a092eb08230d7d1182b3561dcb20bd"),
    ("quadrature_p2", 2, 16,
     ["quadrature", "--measure", "2", "--nodes", "17", "--check"], None,
     "66a8e724ce1cbf8f693c1549cc7d9ac216a78d3e4917c69ff2e98e059619c695"),
    ("quadrature_p3", 3, 17,
     ["quadrature", "--measure", "3", "--nodes", "20", "--check"], None,
     "d065db090f28b8d3af9b22a0304dd527cf7fe7a950a173786252df22b00eca2f"),
    ("chain_factors", 2, 18,
     ["chain", "--order", "20", "--kind", "type_i", "--factors", "--csv"],
     None,
     "8c1f456993fda47229ce6568a436f49b3954631d13d8584b66aadebab4ea958c"),
    ("chain_p3", 3, 19, ["chain", "--order", "25", "--state", "12"], None,
     "0b10de3b98ab7ad12579579295fda16acfbe79549e6975b7b43025c38764b3ea"),
    ("spectrum_extended_p2", 2, 20, ["spectrum", "--order", "12"],
     "extended",
     "6609b76e6ec5d1076e96f1391ee44bb9acd9d024258ee1efb2cfd63fd2abb7ea"),
    ("simulate_p2_type_ii", 2, 21,
     ["simulate", "--order", "15", "--start", "4", "--steps", "9",
      "--trials", "70000", "--seed", "123"], None,
     "274344ea24ff70a2fb79aef2a1b35f44c660ef3cdcd8835cbdff2ea78a22dcd5"),
    ("simulate_p2_type_i", 2, 22,
     ["simulate", "--order", "18", "--kind", "type_i", "--start", "11",
      "--steps", "12", "--trials", "5000", "--seed", "7"], None,
     "057ad94bfb17c12b74336817e053b225c3f01e9090074bd87238ae25b2f1fb2f"),
    ("simulate_p3_type_ii", 3, 23,
     ["simulate", "--order", "25", "--start", "2", "--steps", "12",
      "--trials", "5000", "--seed", "2024"], None,
     "5acfc3601d25af59f14eb26d47b21e9c9bf177ce1c63f8a13441cb07833238a9"),
    ("simulate_p3_type_i", 3, 24,
     ["simulate", "--order", "20", "--kind", "type_i", "--start", "20",
      "--steps", "15", "--trials", "5000", "--seed", "99"], None,
     "b6e1764491c434d4e165d3d316f0229ce34fcda33fa63fc2131f56df4334da83"),
    ("verify_extended_p3", 3, 25, ["verify", "--order", "25"], "extended",
     "0d67fa30a314348c1f5ad7129e0955b8d9f49c6b3133db204a91658bc8464196"),
    ("spectrum_extended_p3", 3, 26, ["spectrum", "--order", "25"],
     "extended",
     "49c3a55051040a07ec7789885ba6d8155d1d0ed5031fece188def3aa6140fd6f"),
    ("chain_extended_p2", 2, 27, ["chain", "--order", "20"], "extended",
     "2804fdf31d9acd0a38b374871b81f22648525724c29ca71ef7244454a29f6428"),
]


@pytest.mark.parametrize("name,p,seed,argv,precision,digest", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_digest(name, p, seed, argv, precision, digest,
                           tmp_path, capsys, monkeypatch):
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps({
        "p": p,
        "alphas": {"kind": "uniform", "low": 0.5, "high": 2.0, "seed": seed},
    }))
    args = [argv[0], "--input", str(gen_path)]
    args += [a for a in argv[1:] if a != "--csv"]
    csv_path = tmp_path / "out.csv"
    if "--csv" in argv:
        args += ["--csv", str(csv_path)]
    if precision:
        monkeypatch.setenv("MULTIHESS_PRECISION", precision)
    else:
        monkeypatch.delenv("MULTIHESS_PRECISION", raising=False)
    assert main(args) == EXIT_OK
    h = hashlib.sha256(capsys.readouterr().out.encode())
    if "--csv" in argv:
        h.update(csv_path.read_bytes())
    assert h.hexdigest() == digest
