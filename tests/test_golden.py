"""Golden report digests: the behaviour lock that refactors run against.

Each entry pins the sha256 of a report without its ``meta`` block, in the
package's canonical encoding, at a reduced size.  A change that alters one on
purpose updates the table and says why in CHANGES.md.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from sigmapaths.cli import main
from sigmapaths.reports import report_json_bytes, strip_meta

_SPEC = ["--family", "exp_martingale", "--stop-level", "1", "--horizon", "4", "--n-steps", "512"]
_COMMON = ["--paths", "256", "--seed", "506369"]

#: command -> (argv before the common flags, report file, non-meta sha256)
GOLDEN = {
    "lemma-balance": (["experiment", "lemma-balance", *_SPEC], "lemma_balance.json",
                      "4bac1f9bd7739b0b101ad01890870c43d9404d68043ccfe791c65ccb1ada891c"),
    "decompose": (["decompose", *_SPEC], "classd_report.json",
                  "f0450a62a359ad92585a7f9588812f7a3bee59178e95cbb5327ce516fa990a25"),
}


def _run(tmp_path, name, workers):
    argv, report, _ = GOLDEN[name]
    out = tmp_path / f"{name}-w{workers}"
    r = CliRunner().invoke(main, [*argv, *_COMMON, "--workers", str(workers),
                                  "--formats", "json", "--out", str(out)])
    assert r.exit_code == 0, r.output
    return json.loads((out / report).read_bytes())


def _digest(doc):
    return hashlib.sha256(report_json_bytes(strip_meta(doc), with_meta=False)).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_digests(tmp_path, workers):
    docs = {name: _run(tmp_path, name, workers) for name in GOLDEN}
    assert {name: _digest(doc) for name, doc in docs.items()} == {
        name: sha for name, (_, _, sha) in GOLDEN.items()}
    assert docs["decompose"]["results"] == docs["lemma-balance"]["results"]["classd"]
