"""Byte-identity of CLI outputs.

Each case runs one `multihess.cli.main` request and compares the SHA-256
of its stdout (followed by its CSV file, when it writes one) with a digest
recorded from the program whose double spectrum starts from LAPACK on the
transpose of T and whose extended band is built from the alphas in mpf
(`verify_extended_p3`, which those changes left alone: before the Newton
polish stopped at convergence).  `verify_tight_p3` and
`quadrature_extended_p2` were recorded from the program whose verify,
exactness profile and extended sharpness scan each compared moments with
their own loop; the first fails its biorthogonality check and three
moment checks at its tolerance, so its digest pins each moment error
against that tolerance.  `chain_csv_p2`, the transition matrix as CSV,
was recorded from the program whose five commands each loaded the
generator, wrote their header and picked their exit code themselves.
Changes meant to keep every float operation must leave these digests
alone; a change that deliberately alters an output (a new field, the
version string, another root route) has to record them again.
"""

import hashlib
import json

import pytest

from multihess.cli import EXIT_OK, EXIT_VERIFY, main

# (name, p, uniform seed, argv after --input, precision, digest)
CASES = [
    ("spectrum_p1", 1, 11, ["spectrum", "--order", "20"], None,
     "f4ef3d34b4f671acedba6cbd24c5fc764724d3666b6e98e1052198b2f925de4a"),
    ("spectrum_p2", 2, 12, ["spectrum", "--order", "30"], None,
     "17c580997a7a70e60b5a61d9bf5d7b7fb32adc6b77ed27a7b57714d8f9c93aad"),
    ("spectrum_p3", 3, 13, ["spectrum", "--order", "35"], None,
     "1ab287b453adc41851aa1f8a798b024c5b35f14728affe24847b6e6bdd88dfac"),
    ("spectrum_p2_csv", 2, 14, ["spectrum", "--order", "16", "--csv"], None,
     "6eda497404f74bdd553df902cbe31ed63ccb28b82c55f738b9a8d360245a1d43"),
    ("quadrature_p1", 1, 15,
     ["quadrature", "--measure", "1", "--nodes", "14", "--check"], None,
     "c5c2c50f2cb7b6953d6e4c21b1cb1be565b23c63ec6489bc1eb6f11c4a25957a"),
    ("quadrature_p2", 2, 16,
     ["quadrature", "--measure", "2", "--nodes", "17", "--check"], None,
     "f9cca00ea298161bcdc469cbc78585d63250ccf6771967f7387ea4dbc6c10806"),
    ("quadrature_p3", 3, 17,
     ["quadrature", "--measure", "3", "--nodes", "20", "--check"], None,
     "bf379f982bd27540e6e162994c5424f242dbdbbb04c454f8c933181811706440"),
    ("chain_factors", 2, 18,
     ["chain", "--order", "20", "--kind", "type_i", "--factors", "--csv"],
     None,
     "ed9e9a66e548296d628a067673b14d270b9d1129f2d187ba76101b5ca48f50ea"),
    ("chain_p3", 3, 19, ["chain", "--order", "25", "--state", "12"], None,
     "2ac8a6d120fd363bc60a09fc0e1d962042730427aeb64bf0db14f5077c76713d"),
    ("spectrum_extended_p2", 2, 20, ["spectrum", "--order", "12"],
     "extended",
     "4575b16a5a6e44df5f863e48f7e0c769dd75cff1266f39d1503aeca13862cdce"),
    ("simulate_p2_type_ii", 2, 21,
     ["simulate", "--order", "15", "--start", "4", "--steps", "9",
      "--trials", "70000", "--seed", "123"], None,
     "eedfb5c519ab7f422e9b10905bda6c5f155c0ac9ff408233c80101756aba191c"),
    ("simulate_p2_type_i", 2, 22,
     ["simulate", "--order", "18", "--kind", "type_i", "--start", "11",
      "--steps", "12", "--trials", "5000", "--seed", "7"], None,
     "ed8198f19847326a08ec4205ea3d1b51f0096b6be549052e710912fcf144a3da"),
    ("simulate_p3_type_ii", 3, 23,
     ["simulate", "--order", "25", "--start", "2", "--steps", "12",
      "--trials", "5000", "--seed", "2024"], None,
     "c5b9ac6149d62807395a10a963a9657a7bdc555c617d65000cd492b6be92aff1"),
    ("simulate_p3_type_i", 3, 24,
     ["simulate", "--order", "20", "--kind", "type_i", "--start", "20",
      "--steps", "15", "--trials", "5000", "--seed", "99"], None,
     "e749180f4eece6faf25f2346b91b3a6f147781459612807e6482a006cb82402f"),
    ("verify_extended_p3", 3, 25, ["verify", "--order", "25"], "extended",
     "0d67fa30a314348c1f5ad7129e0955b8d9f49c6b3133db204a91658bc8464196"),
    ("spectrum_extended_p3", 3, 26, ["spectrum", "--order", "25"],
     "extended",
     "7258442ea01542a27648629be1e21830d2c32064bf7e1c12b84632580c52a30d"),
    ("chain_extended_p2", 2, 27, ["chain", "--order", "20"], "extended",
     "a52223979adff6c4645d6f88f36980e4d362bc606a6353208581b0a942d2fa7a"),
    ("verify_tight_p3", 3, 33,
     ["verify", "--order", "20", "--tolerance", "1e-14"], None,
     "dcd363db15f8c8b92726277197356282afbf89e1811dfd353d428ab738cfbbbb"),
    ("quadrature_extended_p2", 2, 34,
     ["quadrature", "--measure", "2", "--nodes", "12", "--check"],
     "extended",
     "167e299d71e36a83e4edd554350199f961f0f90a5d595ca9f29d45d14911d291"),
    ("chain_csv_p2", 2, 35, ["chain", "--order", "15", "--csv"], None,
     "838079d113cd2fca7fe192665ae41d76f793b1d793334029360bac2aad86329b"),
]
# cases whose verify checks fail, and so exit with EXIT_VERIFY
FAILING = {"verify_tight_p3"}


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
    assert main(args) == (EXIT_VERIFY if name in FAILING else EXIT_OK)
    h = hashlib.sha256(capsys.readouterr().out.encode())
    if "--csv" in argv:
        h.update(csv_path.read_bytes())
    assert h.hexdigest() == digest
