"""Golden report digests: the behaviour lock that refactors run against.

Each entry pins, at a reduced size, the sha256 of a report without its
``meta`` block in the package's canonical encoding, or of the raw bytes of a
``simulate`` CSV.  Each experiment entry also pins the sha256 of every CSV
table and SVG chart it writes with ``--formats json,csv,svg``, and of its
stdout summary line with the ``--out`` path replaced by ``<out>``; the
``decompose`` entry pins its path-0 CSV and stdout line the same way, with
``--formats json,csv``.  Sizes are chosen so that the experiments on long
grids and the walkers split into several batches, and the first-passage
walker carries one running sum across 16 of its 1000-step draw blocks.  A change that alters
a digest on purpose updates the table and says why in CHANGES.md.

The digests hold for the numpy they were taken with (``NUMPY_VERSION``): its
ziggurat normals and pairwise sums set their bits, so on another numpy a
failure names both versions.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sigmapaths.cli import main
from sigmapaths.reports import report_json_bytes, strip_meta

#: The numpy every digest below was taken with.
NUMPY_VERSION = "2.4.6"

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


#: experiment or decompose entry -> {file or "stdout": sha256} of its run with every format it writes
ARTIFACTS = {
    "lemma-balance": {
        "lemma_balance_estimates.csv": "45c21a101a1d062626e98abdbf2253ce3f6d18b9b463b6db0eff1f5f7c6b80b1",
        "stdout": "21b5721caa2cb84000137e6bd9d9a9a91fbc3108f23ba83ba4778dffef77b0e1",
    },
    "azema-law bessel3": {
        "azema_law_bins.csv": "0256d63ec8ac7a1a1af0df7c36596e3992dc1443f59c787df2ae0224b97a2778",
        "azema_law_bins.svg": "4d4883973695e17dcb8ad1eaa12f874bdaafc315aa3b3f69e692f6819f753310",
        "stdout": "1cb752edcbe5287f5e6c281c559f3cd5cf0a2537161c2d5689f4a9880f6d0a8f",
    },
    "azema-law exp_martingale": {
        "azema_law_bins.csv": "6c4bfaa822fde9632ade5e90cc04562023351d18de5945fa2b760a748d2fb60f",
        "azema_law_bins.svg": "53fddc6597b1e76490619b8b892fa4b65b8e98f6ec92cf3c34d2809e785a5791",
        "stdout": "aad05b3d184261e4dfba106ea6068903ef1ce1903e25d8e931200d6a6b06594b",
    },
    "two-infinity": {
        "two_infinity_gaps.csv": "0731c6d614525c5f63ea8c85283c6c8cf6ef06be7552164ae34a983a90648a79",
        "two_infinity_gaps.svg": "57c375b588464073c62af12e371cc4ad2509c9d1d36b0d5d266a873081bce95b",
        "stdout": "40c07e7f0a17799c2593784ce8044c6af2464ea607112c2bcb76dd950daf8cbb",
    },
    "saturation nonsaturated": {
        "saturation_levels.csv": "7062e0035078d33565f7df50c8de800dde47d63717a551037ad10bcf0601f7a0",
        "saturation_levels.svg": "1d0e76fcc2aef225d0046bf97783ab75919a81cf9f513b32744fcd1cfe3bbeff",
        "stdout": "e6fc3f50dba1ff6ce39b7faaa4e9a607cd7de0733505d316c4b139ab40202cd4",
    },
    "saturation saturated": {
        "stdout": "048a17387dcbc2832a8c626a3ee68130eb3c580c2b6efa6a2c31554f0a0dbbb3",
    },
    "tail T_a": {
        "tail_levels.csv": "aa7f6e77678828b74101a2948020ab277c6d407887eee9ed1094b7d6409cea05",
        "tail_levels.svg": "5977fdd81fdf74c660ca0fcc29b4eaf30b32930a0124156d75b0441650af3536",
        "stdout": "90f9bf413efcd39d0b3947bcec39e5697301e19715456cf5d70bfd8f596496f0",
    },
    "tail sigma_b": {
        "tail_levels.csv": "677afab380b4261b766cc5ecef743aee82243c46d642975779cd892b2011c137",
        "tail_levels.svg": "10de2a6cd555efab69aae593aaf7ac5c350f43632f2834dbb44ecf03fe4de03c",
        "stdout": "4730c1d6a661237ac86746c21b71e90dbe8a865cac687b45d289ff0c3aab6510",
    },
    "tail T_a, 16 draw blocks": {
        "tail_levels.csv": "4ceee32eeaf12d5ee4e0aa13b3aa3d68ac0b1d7163ee88375792c72eab3e4fe1",
        "tail_levels.svg": "03616fd4a58c8c5f3f5df48bc2935fa8f1854b9e17b555b522e6c3c28acee21f",
        "stdout": "379762959fd1a5f544165fd809c774998f7d387e5f304d24f01f1cabf950505e",
    },
    "tail sigma_b, 16 draw blocks": {
        "tail_levels.csv": "f9f5218e8e07e78e27d1774b3687215ac7cde424dc593e6d9cd448e98f204ba8",
        "tail_levels.svg": "1e6341dc26e849ffa44f7170d2e817be11830916bfa405e9f3f88977a7a40b31",
        "stdout": "8c6c3d168fa37235799c5f7cd91d5317a5fbe105e4e3022c13122f2464de1d82",
    },
    "saturation nonsaturated, 16 draw blocks": {
        "saturation_levels.csv": "8434c68208a82ed339098202a9da0c25144d298cd98c1500499ff575b93b0b2b",
        "saturation_levels.svg": "676417a9ff4f44ae93215ede48af1fd3488bfc2426b9b3acb2291447ddff78b5",
        "stdout": "4b8f6df888b913dd39edebb6a359b7d1bb3535be303250129d38b57bd1dcb841",
    },
    "saturation saturated, 16 draw blocks": {
        "stdout": "048a17387dcbc2832a8c626a3ee68130eb3c580c2b6efa6a2c31554f0a0dbbb3",
    },
    "decompose": {
        "decomposition_path0.csv": "a143bb733a7e4c7025028a845e580c67dddd07a8e4c1d81a50c09b04d6e41144",
        "stdout": "1542a68e59d7f247a2f0c51b091e4d164951ac3009deda91019ea2d249510c7c",
    },
}


def _numpy_note(installed=np.__version__):
    """The assertion message of a digest mismatch: names both numpy versions
    when the installed one is not the one the digests were taken with."""
    if installed == NUMPY_VERSION:
        return ""
    return f"digests taken with numpy {NUMPY_VERSION}, installed numpy is {installed}"


def test_numpy_note_names_both_versions():
    assert _numpy_note(NUMPY_VERSION) == ""
    assert NUMPY_VERSION in _numpy_note("1.26.4") and "1.26.4" in _numpy_note("1.26.4")


def test_ci_installs_the_numpy_of_the_digests():
    workflow = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"numpy==([0-9][^\s\"']*)", workflow) == [NUMPY_VERSION]


def _run(tmp_path, name, workers):
    """Run golden entry ``name`` once with every format it writes: its pinned
    output's bytes, and for an experiment or ``decompose`` the sha256 of each
    other file it writes and of its stdout line (None for ``simulate``)."""
    argv, output, _ = GOLDEN[name]
    out = tmp_path / f"{name.replace(' ', '_')}-w{workers}"
    fmt = {"experiment": "json,csv,svg", "decompose": "json,csv"}.get(argv[0], "csv")
    pool = [] if argv[0] == "simulate" else ["--workers", str(workers)]  # simulate draws in the CLI process
    r = CliRunner().invoke(main, [*argv, *_SEED, *pool, "--formats", fmt, "--out", str(out)])
    assert r.exit_code == 0, r.output
    if argv[0] == "simulate":
        return (out / output).read_bytes(), None
    pins = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix != ".json"}
    pins["stdout"] = hashlib.sha256(r.stdout.replace(str(out), "<out>").encode("utf-8")).hexdigest()
    return (out / output).read_bytes(), pins


def _digest(raw, output):
    if output.endswith(".json"):
        raw = report_json_bytes(strip_meta(json.loads(raw)), with_meta=False)
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_digests(tmp_path, workers):
    runs = {name: _run(tmp_path, name, workers) for name in GOLDEN}
    assert {name: _digest(raw, GOLDEN[name][1]) for name, (raw, _) in runs.items()} == {
        name: sha for name, (_, _, sha) in GOLDEN.items()}, _numpy_note()
    assert {name: pins for name, (_, pins) in runs.items() if pins is not None} == ARTIFACTS, _numpy_note()
    docs = {name: json.loads(runs[name][0]) for name in ("decompose", "lemma-balance")}
    assert docs["decompose"]["results"] == docs["lemma-balance"]["results"]["classd"]
