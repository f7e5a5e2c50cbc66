"""Every subcommand's stdout, byte for byte, against frozen golden files.

The files under tests/golden/ hold the output of each case below; a
refactor that changes any report, down to a digit or a header field,
fails here.  verify-tau reads the taus golden file as its reference.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from primegaps.cli import main

GOLDEN = Path(__file__).parent / "golden"
TAU_REFERENCE = str(GOLDEN / "taus_2p20.txt")

# name -> (argv, exit code); limits stay at or below 2^20
CASES = {
    "taus_2p20": (["taus", "--limit", "2^20"], 0),
    "moments_2p20": (["moments", "--limit", "2^20"], 0),
    "moments_prime_strict": (["moments", "--limit", "1000003", "--rule", "strict"], 0),
    "moments_prime_inclusive_first": (
        ["moments", "--limit", "1000003", "--rule", "inclusive", "--include-first",
         "--k", "1,2,3,4,5,6"],
        0,
    ),
    "maximal_gaps_2p20": (["maximal-gaps", "--limit", "2^20"], 0),
    "table1": (["table1", "--limit", "2^10,2^15,2^20"], 0),
    "table1_unsorted_repeat": (["table1", "--limit", "2^20,2^10,2^15,2^10"], 0),
    "table2_2p20": (["table2", "--limit", "2^20"], 0),
    "table2_2p20_fixture": (["table2", "--limit", "2^20", "--use-fixture"], 0),
    "figure_data_maxgaps": (["figure-data", "--limit", "2^20"], 0),
    "figure_data_maxgaps_fixture": (["figure-data", "--limit", "2^20", "--use-fixture"], 0),
    "moments_prime_inclusive_k12": (
        ["moments", "--limit", "1000003", "--rule", "inclusive", "--k", "1,2"],
        0,
    ),
    "compare_maxgaps_fixture": (["compare", "--limit", "2^20", "--use-fixture"], 0),
    "verify_tau_match": (["verify-tau", "--reference", TAU_REFERENCE, "--limit", "2^20"], 0),
    "verify_tau_mismatch": (["verify-tau", "--reference", TAU_REFERENCE, "--limit", "2^19"], 1),
    "expmodel": (
        ["expmodel", "--n", "1000", "--q", "0.01", "--spacings", "4", "--seed", "42"],
        0,
    ),
    "expmodel_single": (["expmodel", "--n", "1", "--rate", "0.5"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert capsys.readouterr().out.encode("ascii") == want
