"""Exit codes and artifact output of every CLI subcommand."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import primegaps
from primegaps import cli, read_tau, tau_histogram
from primegaps.cli import main


def test_taus_writes_the_record_format(tmp_path, capsys):
    path = tmp_path / "tau15.dat"
    assert main(["taus", "--limit", "2^15", "--out", str(path)]) == 0
    assert read_tau(path) == tau_histogram(1 << 15)
    assert capsys.readouterr().out == ""
    assert main(["taus", "--limit", "2^15"]) == 0
    assert path.read_bytes() == capsys.readouterr().out.encode("ascii")


def test_taus_prints_to_stdout(capsys):
    assert main(["taus", "--limit", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["2", "35"]
    assert all(len(line.split()) == 2 for line in lines)


def test_verify_round_trip_and_perturbation(tmp_path, capsys):
    path = tmp_path / "tau.dat"
    assert main(["taus", "--limit", "2^15", "--out", str(path)]) == 0
    assert main(["verify-tau", "--reference", str(path), "--limit", "2^15"]) == 0
    assert "exact agreement" in capsys.readouterr().out

    lines = path.read_text(encoding="ascii").splitlines()
    gap, count = lines[3].split()
    lines[3] = f"{gap} {int(count) + 1}"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    assert main(["verify-tau", "--reference", str(path), "--limit", "2^15"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and f"gap {gap}" in out


def test_verify_writes_its_summary_to_out(tmp_path, capsys):
    tau = tmp_path / "tau.dat"
    assert main(["taus", "--limit", "2^15", "--out", str(tau)]) == 0
    for limit, code in (("2^15", 0), ("2^14", 1)):
        summary = tmp_path / f"verify_{code}.txt"
        argv = ["verify-tau", "--reference", str(tau), "--limit", limit, "--out", str(summary)]
        assert main(argv) == code
        assert capsys.readouterr().out == ""
        text = summary.read_text(encoding="ascii")
        assert text.endswith("\n")
        assert ("exact agreement" if code == 0 else "MISMATCH") in text


def test_verify_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.dat"
    assert main(["verify-tau", "--reference", str(missing), "--limit", "1000"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_limit_is_a_usage_error(capsys):
    assert main(["taus", "--limit", "junk"]) == 2
    assert "expected a decimal integer or 2^t" in capsys.readouterr().err


def test_budget_refusal_and_force(tmp_path, capsys):
    args = ["taus", "--limit", "2^20", "--budget-seconds", "0.001"]
    assert main(args + ["--out", str(tmp_path / "a.dat")]) == 3
    # 2^20 - 1 numbers at 10^8 a second, each side the shortest decimal of its float
    assert "estimated runtime 0.01048575s exceeds budget 0.001s;" in capsys.readouterr().err
    # one number past the default budget: the two sides still differ in print
    assert main(["moments", "--limit", "60000000002"]) == 3
    assert "estimated runtime 600.00000001s exceeds budget 600.0s;" in capsys.readouterr().err
    out = tmp_path / "b.dat"
    assert main(args + ["--force", "--out", str(out)]) == 0
    assert out.exists()


SIEVING_REPORTS = [
    ["taus"],
    ["moments"],
    ["maximal-gaps"],
    ["verify-tau", "--reference", "missing.dat"],
    ["table1"],
    ["table2"],
    ["figure-data"],
    ["compare"],
]


@pytest.mark.parametrize("command", SIEVING_REPORTS, ids=lambda argv: argv[0])
def test_every_sieving_report_refuses_a_run_over_budget(command, tmp_path, capsys):
    # 2^20 is quick to sieve, so a report that skipped the guard would fail
    # here by exiting 0, 1 or 2, not by running long; the refusal comes
    # before verify-tau reads its (missing) reference
    path = tmp_path / "report.txt"
    path.write_text("earlier report\n", encoding="ascii")
    argv = command + ["--limit", "2^20", "--budget-seconds", "0.001"]
    for extra in ([], ["--out", str(path)]):
        assert main(argv + extra) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "exceeds budget" in err
    assert path.read_text(encoding="ascii") == "earlier report\n"


@pytest.mark.parametrize("command", SIEVING_REPORTS, ids=lambda argv: argv[0])
def test_every_sieving_report_rejects_a_malformed_limit(command, capsys):
    # only table1 reads a comma list; every other report takes one limit
    malformed = ["junk"] if command == ["table1"] else ["junk", "2^20,2^24"]
    for limit in malformed:
        assert main(command + ["--limit", limit]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: limit {limit!r}: expected a decimal integer or 2^t\n"


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_budget_must_be_finite_and_positive(budget, capsys):
    # nan would turn the guard off and -1 would refuse every run; --force lifts it
    with pytest.raises(SystemExit) as exc_info:
        main(["moments", "--limit", "1000", "--budget-seconds", budget])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget-seconds" in captured.err


def test_table1_budget_charges_the_largest_limit_not_the_sum():
    # one sweep to max(limits): 2^20 twice costs 2^20 numbers, not 2^21
    assert main(["table1", "--limit", "2^20,2^20", "--budget-seconds", "0.015"]) == 0


def test_table1_budget_still_refuses_the_largest_limit(capsys):
    assert main(["table1", "--limit", "2^20,2^24", "--budget-seconds", "0.1"]) == 3
    assert "exceeds budget" in capsys.readouterr().err


def test_the_guard_prices_every_number_from_2_to_the_largest_limit(capsys):
    # 2 to 101 is 100 numbers, 10^-6 s at 10^8 a second: inside a 10^-6 s budget
    assert main(["taus", "--limit", "101", "--budget-seconds", "1e-6"]) == 0
    capsys.readouterr()
    assert main(["taus", "--limit", "102", "--budget-seconds", "1e-6"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: estimated runtime 1.01e-06s exceeds budget 1e-06s;")


def test_missing_required_argument_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc_info:
        main(["moments"])
    assert exc_info.value.code == 2


def test_moments_report(tmp_path):
    path = tmp_path / "moments.csv"
    assert main(["moments", "--limit", "2^15", "--out", str(path)]) == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0].startswith("# limit=32768 rule=strict include_first=false")
    assert lines[2] == "n,k,observed,model,ratio"
    assert len(lines) == 7


def test_moments_respects_rule_and_k_flags(tmp_path):
    path = tmp_path / "m.csv"
    code = main(
        ["moments", "--limit", "1000", "--rule", "inclusive", "--include-first",
         "--k", "1,2", "--out", str(path)]
    )
    assert code == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert "rule=inclusive include_first=true ks=1,2" in lines[0]
    assert len(lines) == 5


def test_bad_moment_orders_are_usage_errors(capsys):
    assert main(["moments", "--limit", "1000", "--k", "a,b"]) == 2
    assert main(["moments", "--limit", "1000", "--k", "0"]) == 2
    assert main(["moments", "--limit", "1000", "--k", "1,1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k", ["170", "200"])
def test_moment_orders_past_float_range_are_usage_errors(k, capsys):
    # 170! (log n)^170 is inf and 200! alone does not convert to a float
    assert main(["moments", "--limit", "1000", "--k", k]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: model moment k! (log n)^k overflows a float at k={k}, n=166\n"


def test_gap_moments_past_float_range_are_usage_errors(capsys):
    # the gaps below 10^6 reach 114, and 114^160 alone exceeds the largest float
    assert main(["moments", "--limit", "1000000", "--k", "160"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: gap moment S_k/n overflows a float at k=160, n=78496\n"


@pytest.mark.parametrize("rate", ["1e-320", "inf"])
def test_expmodel_rates_outside_float_range_are_usage_errors(rate, capsys):
    assert main(["expmodel", "--n", "10", "--rate", rate]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["expmodel", "--n", str(10**400)],
        ["expmodel", "--n", str(2**63)],
        ["moments", "--limit", "\uff11\uff10\uff10\uff10"],
    ],
    ids=["expmodel-n-1e400", "expmodel-n-2^63", "moments-fullwidth-digits"],
)
def test_inputs_outside_the_advertised_range_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_maximal_gaps_report(tmp_path):
    path = tmp_path / "records.csv"
    assert main(["maximal-gaps", "--limit", "10000", "--out", str(path)]) == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1] == "n,G_n,p_n"
    assert lines[2] == "1,1,2"
    assert lines[-1] == "1183,36,9551"


def test_table1_accepts_a_limit_list(tmp_path):
    path = tmp_path / "table1.csv"
    assert main(["table1", "--limit", "2^15,2^18", "--out", str(path)]) == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1] == "t,n,mu_1,mu_2,mu_3,mu_4,G_n"
    assert lines[2].startswith("15,3510,")
    assert lines[3].startswith("18,22998,")
    assert lines[2].endswith(",72") and lines[3].endswith(",86")


def test_moments_below_two_gaps_writes_nothing(tmp_path, capsys):
    # limit 7 leaves one gap, too few for the model: the error comes before any line
    assert main(["moments", "--limit", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n >= 2" in captured.err
    path = tmp_path / "m.txt"
    assert main(["moments", "--limit", "7", "--out", str(path)]) == 2
    assert not path.exists()


FAILING_RUNS = [
    ["taus", "--limit", "1000"],  # its tau_histogram is patched to raise
    ["moments", "--limit", "7"],
    ["maximal-gaps", "--limit", "3"],
    ["verify-tau", "--reference", "{missing}", "--limit", "1000"],
    ["expmodel", "--n", "0"],
    ["table1", "--limit", "100000"],
    ["table2", "--limit", "3"],
    ["figure-data", "--limit", "3"],
]


@pytest.mark.parametrize("argv", FAILING_RUNS, ids=lambda argv: argv[0])
def test_failed_run_leaves_an_existing_out_file_untouched(argv, tmp_path, capsys, monkeypatch):
    # every input here fails after main has opened the output
    def fail(limit):
        raise ValueError("histogram failed")

    monkeypatch.setattr(cli, "tau_histogram", fail)
    argv = [str(tmp_path / "missing.dat") if arg == "{missing}" else arg for arg in argv]
    path = tmp_path / "report.txt"
    path.write_text("earlier report\n", encoding="ascii")
    assert main(argv + ["--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert path.read_text(encoding="ascii") == "earlier report\n"


OUT_MATCHES_STDOUT = [
    ["taus", "--limit", "2^15"],
    ["moments", "--limit", "2^15"],
    ["maximal-gaps", "--limit", "2^15"],
    ["verify-tau", "--reference", "{tau}", "--limit", "2^15"],
    ["expmodel", "--n", "1000", "--spacings", "1000"],
    ["table1", "--limit", "2^10,2^15"],
    ["table2", "--limit", "2^15"],
    ["figure-data", "--limit", "2^15"],
]


@pytest.mark.parametrize("argv", OUT_MATCHES_STDOUT, ids=lambda argv: argv[0])
def test_out_file_matches_stdout(argv, tmp_path, capsys):
    tau = tmp_path / "tau.dat"
    assert main(["taus", "--limit", "2^15", "--out", str(tau)]) == 0
    argv = [str(tau) if arg == "{tau}" else arg for arg in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "report.txt"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode("ascii")


def test_table1_rejects_non_power_limits(capsys):
    assert main(["table1", "--limit", "100000"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_table2_with_fixture(tmp_path):
    path = tmp_path / "table2.csv"
    assert main(["table2", "--limit", "10000", "--use-fixture", "--out", str(path)]) == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1] == "n,G_n,p_n,log_n_sq,log_pn_sq,granville_n,granville_pn"
    assert len(lines) == 9
    assert lines[-1].startswith("49749629143526,1132,1693182318746371,")


def test_compare_is_an_alias_of_figure_data(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", "--limit", "2^15", "--out", str(a)]) == 0
    assert main(["figure-data", "--limit", "2^15", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_data_maxgaps(tmp_path):
    path = tmp_path / "fig2.csv"
    code = main(
        ["figure-data", "--limit", "10000", "--use-fixture", "--out", str(path)]
    )
    assert code == 0
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1].endswith("wolf,kourbatov,exceeds_granville_flag")
    assert len(lines) == 82
    assert lines[2].split(",")[9] == "true"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--rule", "inclusive", "--exclude-first", "--k", "9"],
         ["--rule", "--exclude-first", "--k"]),
        (["--rule", "strict"], ["--rule"]),
        (["--include-first"], ["--include-first"]),
        (["--kind", "moments", "--use-fixture"], ["--kind"]),
    ],
    ids=["maxgaps-moment-flags", "maxgaps-rule", "maxgaps-include-first", "moments-fixture"],
)
@pytest.mark.parametrize("command", ["figure-data", "compare"])
def test_figure_data_rejects_flags_its_kind_ignores(command, flags, named, capsys):
    # figure-data is the max-gap figure alone; the moment figure is `moments`
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--limit", "1000", *flags])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert all(flag in captured.err for flag in named)


@pytest.mark.parametrize(
    "argv",
    [
        ["taus", "--limit", "1000"],
        ["moments", "--limit", "1000"],
        ["maximal-gaps", "--limit", "1000"],
        ["verify-tau", "--reference", "tau.dat", "--limit", "1000"],
        ["table1", "--limit", "2^10"],
        ["table2", "--limit", "1000"],
        ["figure-data", "--limit", "1000"],
        ["compare", "--limit", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_segment_size_is_not_a_flag(argv, capsys):
    # the sieve block never changes a reported number, so no report takes it
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--segment-size", "4096"])
    assert exc_info.value.code == 2
    assert "--segment-size" in capsys.readouterr().err


def test_expmodel_summary(tmp_path):
    path = tmp_path / "exp.txt"
    code = main(
        ["expmodel", "--n", "1000", "--q", "0.01", "--spacings", "100",
         "--seed", "5", "--out", str(path)]
    )
    assert code == 0
    text = path.read_text(encoding="ascii")
    assert "n=1000 rate=1" in text
    assert "max_mean_exact=7.48547" in text
    assert "spacings n=100 seed=5 generator=numpy-pcg64 sum=1.0000" in text


def package_env(**env) -> dict[str, str]:
    """The environment of a child that finds the package where this process imported it from."""
    paths = [str(Path(primegaps.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **env}


def run_module(argv, stdout=subprocess.PIPE, **env):
    """`python -m primegaps argv` in a child that finds the package."""
    return subprocess.run(
        [sys.executable, "-m", "primegaps", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
        env=package_env(**env),
    )


def test_module_entry_point_runs():
    proc = run_module(["taus", "--limit", "100"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2 8"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_the_run_quietly(unbuffered, tmp_path, capsys):
    # the reader of the pipe is gone before the first line, as after
    # `| head -1`; unbuffered, the report's own write fails, buffered the
    # final flush does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(
            ["figure-data", "--limit", "100000"], stdout=write_end, PYTHONUNBUFFERED=unbuffered
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
    # an --out path that cannot be opened is still an input error
    missing = tmp_path / "missing" / "fig.csv"
    assert main(["figure-data", "--limit", "1000", "--out", str(missing)]) == 2
    assert "No such file" in capsys.readouterr().err


# Two CPUs and 2^12-number shares split `moments --limit 20000` at 10000; the
# forked share prints its pid and stalls, so the parent waits on it.
STALLED_SPLIT_SWEEP = """
import os, sys, time
from primegaps import cli, gapstats
os.sched_getaffinity = lambda pid: {0, 1}
gapstats._SHARE_FLOOR = 1 << 12
parent, fold = os.getpid(), gapstats._fold_range
def fold_or_stall(lo, hi, base):
    if os.getpid() != parent:
        print(os.getpid(), flush=True)
        time.sleep(60)
    return fold(lo, hi, base)
gapstats._fold_range = fold_or_stall
sys.exit(cli.main(sys.argv[1:]))
"""


def test_sigterm_stops_a_split_sweep_and_its_forked_share(tmp_path):
    path = tmp_path / "moments.csv"
    path.write_text("earlier report\n", encoding="ascii")
    argv = ["moments", "--limit", "20000", "--out", str(path)]
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED_SPLIT_SWEEP, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=package_env(),
    )
    child = None
    try:
        child = int(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 143  # 128 + SIGTERM, as a shell reports a TERM
        with pytest.raises(ProcessLookupError):  # killed and reaped before the parent left
            os.kill(child, 0)
    finally:  # the child first: a stray one would hold the pipe open for a minute
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
        proc.kill()
        proc.communicate()
    assert path.read_text(encoding="ascii") == "earlier report\n"
