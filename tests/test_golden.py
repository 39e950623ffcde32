"""Byte-level pins of the CLI's serialized outputs.

Each case runs one command and compares the SHA-256 digest of what it
wrote (``seconds`` masked, the one wall-clock field) with a digest
recorded from a known-good build. A refactor of the writers or of the
report and record types must leave every digest as it is.
"""

import hashlib
import re

import pytest

from lcmlab import analysis
from lcmlab.cli import main

SWEEP = ("sweep", "--poly", "x^2+x+1", "--n-geom", "100:6400:2", "--seed", "3")

# argv -> (exit code, output kind, SHA-256 of the masked output)
GOLDEN = {
    # every check, with a report of each status but "fail"
    ("verify", "--poly", "x^3+2", "--n", "2000", "--checks", "all", "--seed", "3"): (
        0, "json", "c5ea261a506436b1daaada8c867a620277864b6958a08d13e6454f23087a486b"
    ),
    # the content 6 and the integer zero n = 1
    ("verify", "--poly", "6x^2-6", "--n", "300", "--checks", "all", "--seed", "3"): (
        0, "json", "6b0ce712f5841428a5e6e346b714dc53efd3651f6a8683121d2a0baeea6848a8"
    ),
    SWEEP + ("--format", "csv"): (
        0, "csv", "e62a252355be37beab9eb8b3317db19825d86cd8047138a82ec3fdfe594a4c08"
    ),
    SWEEP + ("--format", "ndjson"): (
        0, "json", "d5c975d010188e5660a5b279abde02ec721a24ecc7c7aa82912de41aea77cf12"
    ),
    SWEEP + ("--format", "json"): (
        0, "json", "a4301dcc41b9c9867623ae34cf4faf36e996737f235970f3037ac87838d6ee73"
    ),
    # 56 checkpoints, most of them inside one Leg 2 segment
    ("sweep", "--poly", "x^2+1", "--n-geom", "100:20000:1.1", "--format", "csv",
     "--seed", "3"): (
        0, "csv", "fbe47b75255fb9f35a359ee61708e2a233a79536a712c5fa191ef75f70ca5c44"
    ),
    # N = 1 has undefined ratios: nan in CSV, null in JSON
    ("sweep", "--poly", "x^2+x+1", "--n", "1,2,3", "--format", "csv"): (
        0, "csv", "60c2cab1e6eeabb1e8e870b331d84cc101c82ad8e4575e5545c9131c0c2fce13"
    ),
    ("sweep", "--poly", "x^2+x+1", "--n", "1,2,3", "--format", "ndjson"): (
        0, "json", "37a200c58af02bf8dfa00a682988f53562a48ccdd816902c5cc10210eca23726"
    ),
    ("local", "--poly", "x^2+1", "--p", "5", "--n", "10"): (
        0, "json", "b084fa2ddd7de141c01a84c666dde2fcee18a42a075280e6b8f83fc5fbf5e03f"
    ),
}


def _digest(kind, text):
    """SHA-256 of ``text`` with every sweep record's ``seconds`` set to 0."""
    if kind == "csv":
        text = re.sub(r"^(\d[^\n]*),[^,\n]*$", r"\1,0", text, flags=re.M)
    else:
        text = re.sub(r'"seconds": [^,}\n]+', '"seconds": 0', text)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_output_digest(argv, capsys):
    code, kind, digest = GOLDEN[argv]
    assert main(list(argv)) == code
    assert _digest(kind, capsys.readouterr().out) == digest


def test_failing_report_digest(monkeypatch, capsys):
    """A report with violations, nested point tuples among them: harvested
    above N rather than DN, x^2-5x+11 at N = 4 has f(1) = f(4) = 7 and
    f(2) = f(3) = 5, so both tuples have A = 0."""
    harvest = analysis.harvest_divisibility_tuples
    monkeypatch.setattr(
        analysis,
        "harvest_divisibility_tuples",
        lambda ledger, above, limit=200: harvest(ledger, "N", limit),
    )
    argv = ["verify", "--poly", "x^2-5x+11", "--n", "4", "--checks", "divided_difference"]
    assert main(argv) == 1
    assert _digest("json", capsys.readouterr().out) == (
        "b2fbd086e1ce6d8600e82aead054da75002a6e25ee964a2a5fc4fc594feaccd5"
    )
