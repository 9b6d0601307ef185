"""Golden report digests: the behaviour lock that refactors run against.

Each entry pins, at a reduced size, the sha256 of a report without its
``meta`` block in the package's canonical encoding, or of the raw bytes of a
``simulate`` CSV.  Sizes are chosen so that the experiments on long grids and
the walkers split into several batches, and the first-passage walker carries
one running sum across 16 of its 1000-step draw blocks.  A change that alters
a digest on purpose updates the table and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from sigmapaths.cli import main
from sigmapaths.reports import report_json_bytes, strip_meta

_SEED = ["--seed", "506369"]
_SPEC = ["--family", "exp_martingale", "--stop-level", "1", "--horizon", "4", "--n-steps", "512"]
# 10 full-row batches of 63 rows, or 2 Bessel walker batches of 409 rows
_LONG = ["--horizon", "16", "--n-steps", "16384", "--paths", "600"]
# 2 exp_martingale walker batches of 682 rows (one component per path)
_LONG_EXP = ["--horizon", "16", "--n-steps", "16384", "--paths", "1200"]
_WALK4 = ["--horizon", "4", "--dt", "0.01", "--paths", "4352"]       # 5 walker batches of 1048 rows
_WALK16 = ["--horizon", "16", "--dt", "0.01", "--paths", "4352"]
_BLOCKS16 = ["--horizon", "16", "--dt", "0.001", "--paths", "4352"]  # 16,000 steps: 16 draw blocks of one sum
_SIM = ["simulate", "--horizon", "4", "--n-steps", "64", "--paths", "3"]

#: name -> (argv before the seed, output file, sha256)
GOLDEN = {
    "lemma-balance": (
        ["experiment", "lemma-balance", *_SPEC, "--paths", "256"], "lemma_balance.json",
        "4bac1f9bd7739b0b101ad01890870c43d9404d68043ccfe791c65ccb1ada891c"),
    "decompose": (
        ["decompose", *_SPEC, "--paths", "256"], "classd_report.json",
        "f0450a62a359ad92585a7f9588812f7a3bee59178e95cbb5327ce516fa990a25"),
    "azema-law bessel3": (
        ["experiment", "azema-law", "--t", "1", "--bins", "5", *_LONG], "azema_law.json",
        "f55891d6a6763e00236b10cd87593ac945f72b00dd13571316863a7ad6e6c6c4"),
    "azema-law exp_martingale": (
        ["experiment", "azema-law", "--family", "exp_martingale", "--level", "0.5", "--t", "1",
         "--bins", "5", *_LONG_EXP], "azema_law.json",
        "ac89edaa1ade2c140b15af727dde877de3287dbf5a6a37486a852acfc0407e8d"),
    "two-infinity": (
        ["experiment", "two-infinity", *_LONG], "two_infinity.json",
        "8a83f755bc88b43d38d2da0c0d673c547c4f8222dd5551b80050616fdd1a70f3"),
    "saturation nonsaturated": (
        ["experiment", "saturation", "--kind", "nonsaturated_zero_set", *_WALK4], "saturation.json",
        "523e87df4fc32a2a20e39cd75bff23bb4f6d2d72ff9b2c3e79638ba91de6b219"),
    "saturation saturated": (
        ["experiment", "saturation", "--kind", "saturated_level_set", *_WALK4], "saturation.json",
        "4c86917ba60d90d4663c319b4847cae26049ba3042bcd6cd3dd5e5d94b4d7ed8"),
    "tail T_a": (
        ["experiment", "tail", "--kind", "T_a_heavy_tail", *_WALK16], "tail.json",
        "67d24b7cdbff67b7dbae7c5f3fa283057a4a52760cf60242d458df90c90df76d"),
    "tail sigma_b": (
        ["experiment", "tail", "--kind", "sigma_b_expectation", "--b", "1", *_WALK16], "tail.json",
        "cd3e38ac9ff020bbbc160d71ba9725cecb6bea086fe16c19695b26a235a6b9e6"),
    "tail T_a, 16 draw blocks": (
        ["experiment", "tail", "--kind", "T_a_heavy_tail", *_BLOCKS16], "tail.json",
        "7620a921219cf7bdcef8b3e0db6d9197601efd5205a959630c99fe7a3c30c385"),
    "tail sigma_b, 16 draw blocks": (
        ["experiment", "tail", "--kind", "sigma_b_expectation", "--b", "1", *_BLOCKS16], "tail.json",
        "e91703a2bd635482f7514d3c2ed046271232ace189c76477229e4054d93111cb"),
    "saturation nonsaturated, 16 draw blocks": (
        ["experiment", "saturation", "--kind", "nonsaturated_zero_set", *_BLOCKS16], "saturation.json",
        "37ff99a1459f5a6d3de1a604017fe8602744ba7a17b434aaedabfd5c16f66a0b"),
    "saturation saturated, 16 draw blocks": (
        ["experiment", "saturation", "--kind", "saturated_level_set", *_BLOCKS16], "saturation.json",
        "43278d87e1f1d7702711cea717b0c30cde718430953ff27fc05f40fdfadbd6f8"),
    "simulate brownian": (
        [*_SIM, "--family", "brownian"], "paths.csv",
        "9834a60c7e52a162a450e1e0b6626036e9757390438da56c9e59155546a6a123"),
    "simulate brownian_stopped_level": (
        [*_SIM, "--family", "brownian_stopped_level", "--a", "0.5"], "paths.csv",
        "40140d95619c4883e62611ae9c47de9cb497a93cc1ffc8071bb42a8587fc71c3"),
    "simulate brownian_drift_stopped_line": (
        [*_SIM, "--family", "brownian_drift_stopped_line", "--b", "1.5"], "paths.csv",
        "6f60a85aeabe0d68ecc6e3e4f23316cf5914df1d90ec109309bc2c201704b03d"),
    "simulate exp_martingale": (
        [*_SIM, "--family", "exp_martingale", "--stop-line-drift", "1"], "paths.csv",
        "44bbcda02ed92e440901aa12dcca76d1950064767cbcea446754d936ca15b571"),
    "simulate bessel3": (
        [*_SIM, "--family", "bessel3", "--x0", "1"], "paths.csv",
        "5c63b3fdddac30014575b4c765a57059c82a0a0e4503145ad2fba2f7bbf561d9"),
    "simulate scale_martingale": (
        [*_SIM, "--family", "scale_martingale", "--x0", "2"], "paths.csv",
        "c30b29a72e882914204098fa2aedd4b84428e6750f239f579f9010fd04401033"),
}


def _run(tmp_path, name, workers):
    argv, output, _ = GOLDEN[name]
    out = tmp_path / f"{name.replace(' ', '_')}-w{workers}"
    fmt = "csv" if output.endswith(".csv") else "json"
    r = CliRunner().invoke(main, [*argv, *_SEED, "--workers", str(workers),
                                  "--formats", fmt, "--out", str(out)])
    assert r.exit_code == 0, r.output
    return (out / output).read_bytes()


def _digest(raw, output):
    if output.endswith(".json"):
        raw = report_json_bytes(strip_meta(json.loads(raw)), with_meta=False)
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_digests(tmp_path, workers):
    raws = {name: _run(tmp_path, name, workers) for name in GOLDEN}
    assert {name: _digest(raw, GOLDEN[name][1]) for name, raw in raws.items()} == {
        name: sha for name, (_, _, sha) in GOLDEN.items()}
    docs = {name: json.loads(raws[name]) for name in ("decompose", "lemma-balance")}
    assert docs["decompose"]["results"] == docs["lemma-balance"]["results"]["classd"]
