import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mrlab import __version__, acceptance, certify, cli, multiplier, rademacher
from mrlab.acceptance import run_all
from mrlab.certify import DissipativityWitness, dissipativity_witness
from mrlab.cli import main
from mrlab.errors import InvariantViolation
from mrlab.multiplier import PositivityReport, bv_semigroup_bound, positivity_check
from mrlab.rademacher import RadSum, SampledNorm, rad_norm


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_gamma_stdout_and_determinism(capsys):
    code1, out1 = run(["gen-gamma", "--family", "constant", "--value", "0.1",
                       "--n", "8"], capsys)
    code2, out2 = run(["gen-gamma", "--family", "constant", "--value", "0.1",
                       "--n", "8"], capsys)
    assert code1 == 0 and out1 == out2
    lines = [l for l in out1.splitlines() if not l.startswith("#")]
    assert lines[0] == "m,c_m,gamma_m,log_gamma_m"
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[2]) == 1.0
    assert "# schema mrlab/gen-gamma/v1" in out1
    assert "# seed 0" in out1


def test_gen_gamma_lacunary_head(capsys):
    code, out = run(["gen-gamma", "--family", "lacunary", "--n", "4"], capsys)
    assert code == 0
    vals = [float(l.split(",")[2]) for l in out.splitlines()
            if l and not l.startswith("#") and not l.startswith("m,")]
    assert vals == [4.0, 2.0, 16.0, 8.0]


def test_pi_table(capsys):
    code, out = run(["pi-table", "--n", "16"], capsys)
    assert code == 0
    rows = {}
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("m,"):
            continue
        m, pi, inv = (int(x) for x in line.split(","))
        rows[m] = (pi, inv)
    assert rows[2] == (2, 2) and rows[6][0] == 4 and rows[10][0] == 8
    assert rows[4][0] == 6 and rows[6][1] == 4  # inverse of pi(4) = 6 is 4
    assert any(l.startswith("# b_list 2 4 8 12") for l in out.splitlines())


def test_semigroup_check_verdicts(tmp_path, capsys):
    out_file = tmp_path / "pos.csv"
    code = main(["semigroup-check", "--gamma", "lacunary", "--n", "64",
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert "# verdict true" in text
    code2, out2 = run(["semigroup-check", "--gamma", "constant:0.1", "--n", "64"],
                      capsys)
    assert code2 == 0
    assert "# verdict false" in out2


def test_bv_bound_ok(capsys):
    code, out = run(["bv-bound", "--alpha", "1.0", "--tgrid", "1.0", "--n", "500"],
                    capsys)
    assert code == 0
    row = [l for l in out.splitlines() if l and l[0].isdigit()][0]
    cols = row.split(",")
    assert float(cols[3]) == pytest.approx(16.0 / 2.718281828459045, rel=1e-12)
    assert cols[4] == "true"


@pytest.mark.parametrize("tgrid", ["1e308,1e308", "5e-324,-1e-310,-1e308"])
def test_bip_check_reads_finite_ratios_at_extreme_times(tgrid, capsys):
    # 8 |t| c overflowed at 1e308, and 0/0 gave NaN at subnormal t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(["bip-check", "--tgrid", tgrid], capsys)
    assert (code, err) == (0, "")
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    ratios = [float(l.split(",")[1]) for l in rows]
    assert len(ratios) == tgrid.count(",") + 1
    assert all(0.0 < r <= 1.0 for r in ratios)


def test_bip_check_exit_codes(capsys):
    code, out = run(["bip-check", "--family", "power", "--alpha", "0.25",
                     "--pairs", "100", "--tgrid", "0.1,1"], capsys)
    assert code == 0
    assert "# worst_ratio" in out


def test_rbound_blowup_ratio_two(capsys):
    code, out = run(["rbound-blowup", "--family", "powerlog", "--alpha", "0.25",
                     "--p", "4", "--blocks", "100,10000"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and l[0].isdigit()]
    l100, l10000 = float(rows[0][1]), float(rows[1][1])
    assert l10000 / l100 == pytest.approx(2.0, abs=0.2)


def test_diag_norm_and_uncond(capsys):
    code, out = run(["diag-norm", "--family", "power", "--alpha", "0.25",
                     "--p", "4", "--blocks", "12"], capsys)
    assert code == 0 and "# regular true" in out
    code2, out2 = run(["uncond-constant", "--n", "8", "--p", "2"], capsys)
    assert code2 == 0
    val = float([l for l in out2.splitlines() if l.startswith("8,")][0].split(",")[3])
    assert val >= 1.0


def test_interval_certify_json(capsys):
    code, out = run(["interval-certify", "--left", "1.5", "--right", "3",
                     "--left-closed", "--right-closed"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["set_equal"] is True
    assert report["interval"] == "[1.5, 3]"
    assert report["plan"]["right_kind"] == "power"
    ps = {entry["p"]: entry["predicted"] for entry in report["per_p"]}
    assert ps[1.5] and ps[3.0] and not ps[3.05] and not ps[1.45]


def test_interval_certify_infinite(capsys):
    code, out = run(["interval-certify", "--left", "1", "--right", "inf"], capsys)
    assert code == 0
    assert json.loads(out)["set_equal"] is True


def test_interval_certify_right_endpoint_past_half_the_float_range(capsys):
    # 2 p0 overflowed past 8.99e307, so the threshold exponent read 0.0 and
    # the planned set disagreed with the interval
    code, out = run(["interval-certify", "--left", "1.5", "--right", "1e308",
                     "--format", "csv"], capsys)
    assert code == 0
    assert "# right powerlog 0.5\n" in out and "# set_equal true\n" in out


FAMILIES = [["--family", "power", "--alpha", "0.25"], ["--family", "powerlog", "--alpha", "0.25"],
            ["--family", "constant"], ["--family", "geometric"]]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[1])
@pytest.mark.parametrize("block", range(1, 9))
def test_dissipativity_exit_codes_by_block(block, family, capsys):
    # blocks 3-6 carry overlap terms that the closed form leaves out, so
    # they are not checked against it; block 2 has no witness coordinate
    code, out, err = run_err(["dissipativity", "--block", str(block)] + family, capsys)
    if block == 2:
        assert_one_line_usage_error(code, out, err)
    else:
        assert (code, err) == (0, "")
        assert f"\n{block}," in out


@pytest.mark.parametrize("block", [53, 100, 1000])
def test_dissipativity_geometric_gaps_that_round_to_zero(block, capsys):
    # from block 53 on the ratios drop below 1e-17, gamma_{m+1} rounds to
    # gamma_m, and pairing 0 against closed form 0 used to exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(["dissipativity", "--family", "geometric",
                                  "--block", str(block)], capsys)
    assert (code, err) == (0, "")
    assert f"\n{block},0,0," in out


def test_dissipativity_command(capsys):
    code, out = run(["dissipativity", "--family", "power", "--alpha", "0.25",
                     "--block", "30"], capsys)
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("30,")][0].split(",")
    assert float(row[1]) > 0.0
    assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-9)


def test_rad_norm_command(capsys):
    code, out = run(["rad-norm", "--k", "8", "--blocks", "5", "--p", "2.5",
                     "--samples", "20000"], capsys)
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("8,")][0].split(",")
    exact, sampled = float(row[2]), float(row[3])
    assert sampled == pytest.approx(exact, rel=0.05)


# the rows at the parent of the exact-spread check, which exited 2 on each:
# both draws land on one pattern, and the sample's spread reads 0
TWO_DRAW_ROWS = {1: "1.9772612445700481,2.0584123869155904",
                 2: "3.5063388509313342,2.6841849448179564",
                 3: "4.50284958821263,5.2823001817869963",
                 4: "3.129506365202916,2.4169968872659298",
                 5: "2.7209221673004773,3.2105359775499829"}


@pytest.mark.parametrize("seed", sorted(TWO_DRAW_ROWS))
def test_rad_norm_two_draws_on_one_pattern_pass(seed, capsys):
    code, out = run(["rad-norm", "--k", "2", "--blocks", "3", "--samples", "2",
                     "--seed", str(seed)], capsys)
    assert code == 0
    config = ('{"blocks": 3, "command": "rad-norm", "format": "csv", "jobs": 1, "k": 2, '
              f'"p": 3.0, "samples": 2, "seed": {seed}}}')
    assert out == (f"# mrlab {__version__}\n# schema mrlab/rad-norm/v1\n# seed {seed}\n"
                   f"# config {config}\nk,p,exact,sampled,stderr\n"
                   f"2,3,{TWO_DRAW_ROWS[seed]},0\n")


@pytest.mark.parametrize("shift, code", [(3.0, 0), (5.0, 2)])
def test_rad_norm_checks_the_exact_standard_error(shift, code, capsys, monkeypatch):
    # move the sampled value by `shift` standard errors of the pattern table
    calls = []

    def shifted(s, mode, **kw):
        calls.append(mode)
        got = rad_norm(s, mode, **kw)
        if mode == "exact":
            return got
        exact = rad_norm(s, "exact")
        se = np.std(s.pattern_squares) / math.sqrt(kw["samples"]) / (2.0 * exact)
        return SampledNorm(exact + shift * se, got.stderr, got.samples)

    monkeypatch.setattr(rademacher, "rad_norm", shifted)
    code_run, out, err = run_err(["rad-norm", "--k", "6", "--blocks", "4", "--samples", "3000"],
                                 capsys)
    assert (code_run, calls) == (code, ["exact", "sampled"])
    if code:
        exact, sampled = out.splitlines()[-1].split(",")[2:4]
        assert_one_violation(code, err, f"sampled {sampled}, exact {exact}, 4 standard errors ")
    else:
        assert err == ""


# -- every exit 2: a violating kernel result, the table, one stderr line ---------


def assert_one_violation(code, err, *numbers):
    """Exit 2 and one stderr line that reports the violation with each of numbers."""
    assert code == 2
    assert err.startswith("invariant violated: ") and err.count("\n") == 1
    for number in numbers:
        assert number in err


def test_semigroup_check_violation_states_the_minimum(monkeypatch, capsys):
    # a negative smallest entry beside pair values that decrease
    monkeypatch.setattr(multiplier, "positivity_check", lambda op, grid: dataclasses.replace(
        positivity_check(op, grid), min_entry=-1.0))
    code, out, err = run_err(["semigroup-check", "--n", "64", "--tgrid", "0.5,2"], capsys)
    minimum = next(l for l in out.splitlines() if l.startswith("# min_entry "))[2:]
    assert minimum.startswith("min_entry -1 at t ")
    assert_one_violation(code, err, minimum, "monotone_values true")
    assert "t,min_entry,verdict\n" in out and out.endswith("\n2,0,true\n")


@pytest.mark.parametrize("argv", [
    ["--gamma", "constant:1e-13", "--n", "128"],
    ["--gamma", "constant:0.1", "--tol", "1"],
    ["--gamma", "constant:1e-17", "--n", "50", "--tgrid", "1"],
])
def test_semigroup_check_judges_the_rounded_pair_values(argv, capsys):
    # each exited 2: negative entries inside --tol read as a positive verdict
    # against increasing log2 values, and from C = 1e-17 down the values of
    # a pair round equal, so the operator is positive while the log2 values
    # still increase (with a 0/0 extremal time beside it)
    code, out, err = run_err(["semigroup-check", *argv], capsys)
    assert (code, err) == (0, "")
    header = dict(line[2:].split(" ", 1) for line in out.splitlines() if line.startswith("# "))
    assert "nan" not in out and header["verdict"] in ("true", "false")


def test_bv_bound_violation_states_the_first_failing_row(monkeypatch, capsys):
    def lowered(alpha, t, n):   # a bound below the variation at alpha 0.5 and t 1
        computed, closed = bv_semigroup_bound(alpha, t, n)
        return computed, np.where((alpha == 0.5) & (t == 1.0), computed / 2, closed)

    monkeypatch.setattr(multiplier, "bv_semigroup_bound", lowered)
    code, out, err = run_err(["bv-bound", "--alpha", "0.25,0.5", "--tgrid", "0.1,1,10",
                              "--n", "200"], capsys)
    row = next(l for l in out.splitlines() if l.endswith(",false"))
    alpha, t, computed, bound = row.split(",")[:4]
    assert (alpha, t, out.count(",false")) == ("0.5", "1", 1)
    assert_one_violation(code, err, f"at alpha 0.5 t 1: computed {computed}, bound {bound}")


def test_bip_check_violation_states_the_worst_ratio(monkeypatch, capsys):
    monkeypatch.setattr(multiplier, "bip_pair_ratios", lambda *args: np.array([0.5, 1.25]))
    code, out, err = run_err(["bip-check", "--pairs", "10", "--tgrid", "0.1,1"], capsys)
    assert_one_violation(code, err, "worst_ratio 1.25")
    assert "# worst_ratio 1.25\n" in out and out.endswith("\n1,1.25\n")


def test_interval_certify_violation_states_the_disagreeing_points(monkeypatch, capsys):
    # a right factor that holds everywhere plans p past the right endpoint
    monkeypatch.setattr(certify.MRPlan, "right_factor", lambda self, p: p > 0.0)
    code, out, err = run_err(["interval-certify", "--left", "1.5", "--right", "3"], capsys)
    assert_one_violation(code, err, "planned set disagrees with (1.5, 3) at p = [3.")
    assert out == ""


def test_dissipativity_violation_states_the_pairing_and_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(certify, "dissipativity_witness", lambda ratios, k: dataclasses.replace(
        dissipativity_witness(ratios, k), pairing=-1.0))
    code, out, err = run_err(["dissipativity", "--block", "30"], capsys)
    pairing, closed = next(l for l in out.splitlines() if l.startswith("30,")).split(",")[1:3]
    assert pairing == "-1"
    assert_one_violation(code, err, f"pairing {pairing}, closed form {closed}, bound ")


def test_selftest_violation_names_the_failed_checks(monkeypatch, capsys):
    _counting_checks(monkeypatch)
    monkeypatch.setattr(acceptance, "run_all", lambda numbers: [
        dataclasses.replace(r, passed=r.number == 5) for r in run_all(numbers)])
    code, out, err = run_err(["selftest", "--only", "3,5,12"], capsys)
    assert (code, err) == (2, "invariant violated: acceptance checks failed: 3,12\n")
    assert (out.count("[FAIL]"), out.count("[PASS]")) == (2, 1)


@pytest.mark.parametrize("owner, name, argv, check", [
    (PositivityReport, "violation", ["semigroup-check", "--n", "64", "--tgrid", "0.5,2"], 3),
    (DissipativityWitness, "violation", ["dissipativity", "--block", "30"], 10),
    (RadSum, "sampled_violation", ["rad-norm", "--k", "4", "--blocks", "3", "--samples", "100"],
     11),
], ids=["positivity", "dissipativity", "rademacher"])
def test_subcommand_and_selftest_read_one_decision(owner, name, argv, check, monkeypatch,
                                                   capsys):
    # each statement is decided by one method; a violation it reports ends
    # the subcommand with exit 2 and fails the matching acceptance check
    monkeypatch.setattr(owner, name, lambda self, *args: InvariantViolation("forced"))
    code, out, err = run_err(argv, capsys)
    assert_one_violation(code, err, "forced")
    assert [r.passed for r in run_all([check])] == [False]


def test_sector_probe_command(capsys):
    code, out = run(["sector-probe", "--gamma", "lacunary", "--n", "36",
                     "--angles", "1.0", "--radii", "geom:1:100:3",
                     "--trials", "1"], capsys)
    assert code == 0
    assert "# measured_K" in out


def test_sector_probe_reports_its_singular_rays(capsys):
    # one ulp below pi, lam = 4 e^{i(pi - angle)} lies within rounding of the
    # eigenvalue 4
    code, out = run(["sector-probe", "--angles", "3.1415926535897927,1", "--radii", "4",
                     "--n", "10"], capsys)
    assert code == 0
    assert "\n# skipped 1 singular parameters\n" in out


@pytest.mark.parametrize("argv", [["rbound-blowup", "--blocks", "x"], ["selftest", "--only", "x"]])
def test_unreadable_integer_list_is_one_line_error(argv, capsys):
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == "error: cannot read 'x' as a comma list of integers\n"


def test_selftest_subset(capsys):
    code, out = run(["selftest", "--only", "6,9"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize("argv", [["pi-table", "--n", "abc"], ["rad-norm", "--blocks", "0.5"],
                                  ["rad-norm", "--p", ""], ["gen-gamma", "--famly", "power"]])
def test_argparse_errors_are_one_line(argv, capsys):
    # argparse printed its usage text before the error line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert_one_line_usage_error(exc.value.code, captured.out, captured.err)
    assert argv[1] in captured.err


def test_help_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pi-table", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_usage_error_exit_one_and_suggestion(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-gamma", "--famly", "power"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--family" in err


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "family": "lacunary"}))
    code, out = run(["gen-gamma", "--n", "99", "--config", str(cfg)], capsys)
    assert code == 0
    data_rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(data_rows) == 5


def test_out_format_aliases(capsys):
    # a bare format name as the target selects stdout in that format
    code, out = run(["rbound-blowup", "--family", "power", "--alpha", "0.25",
                     "--p", "4", "--blocks", "100,1000", "--out", "csv"], capsys)
    assert code == 0 and out.startswith("# mrlab")
    code, out = run(["gen-gamma", "--n", "3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["m", "c_m", "gamma_m", "log_gamma_m"]
    assert data["rows"][0][1] is None  # no ratio ahead of the first entry
    code, out = run(["interval-certify", "--left", "2", "--right", "5",
                     "--left-closed", "--format", "csv"], capsys)
    assert code == 0 and "# set_equal true" in out


def test_seeded_command_byte_identical(capsys):
    args = ["rad-norm", "--k", "8", "--blocks", "5", "--seed", "7",
            "--samples", "5000"]
    _, out1 = run(args, capsys)
    _, out2 = run(args, capsys)
    assert out1 == out2
    _, out3 = run(args[:-1] + ["5001"], capsys)
    assert out1 != out3


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("MRLAB_SEED", "1234")
    code, out = run(["rad-norm", "--k", "6", "--blocks", "4", "--samples", "1000"],
                    capsys)
    assert code == 0
    assert "# seed 1234" in out


def test_env_seed_is_read_on_every_call(capsys, monkeypatch):
    argv = ["rad-norm", "--k", "4", "--blocks", "3", "--samples", "100"]
    for seed in ("1234", "77", "1234"):
        monkeypatch.setenv("MRLAB_SEED", seed)
        code, out = run(argv, capsys)
        assert code == 0
        assert f"# seed {seed}\n" in out


@pytest.mark.parametrize("argv", [
    # numpy's seeding used to end each of these in a ValueError traceback
    ["rad-norm", "--seed", "-1"],
    ["uncond-constant", "--n", "5", "--mode", "sampled", "--seed", "-1"],
    ["sector-probe", "--n", "64", "--seed", "-1"],
    # exact mode seeds only seed + 1, so -1 used to pass and exit 0
    ["uncond-constant", "--n", "5", "--seed", "-1"],
    ["uncond-constant", "--n", "5", "--seed", "-2"],
    ["rad-norm", "--seed", "abc"],
    ["rad-norm", "--seed", "1.5"],
])
def test_seed_is_a_non_negative_integer(argv, capsys):
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert f"a non-negative integer, not '{argv[-1]}'" in err


@pytest.mark.parametrize("seed", ["abc", "-3", ""])
def test_env_seed_follows_the_seed_rule(seed, capsys, monkeypatch):
    # an unreadable MRLAB_SEED used to end in an int() traceback
    monkeypatch.setenv("MRLAB_SEED", seed)
    code, out, err = run_err(["rad-norm", "--k", "3", "--blocks", "3"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "MRLAB_SEED" in err


@pytest.mark.parametrize("seed", [-3, "x", 2.5, True])
def test_config_seed_follows_the_seed_rule(seed, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": seed}))
    code, out, err = run_err(["rad-norm", "--k", "3", "--blocks", "3", "--config", str(cfg)],
                             capsys)
    assert_one_line_usage_error(code, out, err)


def test_config_seed_is_read_as_the_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    argv = ["rad-norm", "--k", "3", "--blocks", "3", "--samples", "100"]
    code, out = run(argv + ["--config", str(cfg)], capsys)
    assert code == 0
    assert out == run(argv + ["--seed", "5"], capsys)[1]


def run_err(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_usage_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["bogus", "power", "constant:", "power:x"])
def test_unreadable_gamma_source_is_one_line_error(source, capsys):
    code, out, err = run_err(["semigroup-check", "--gamma", source, "--n", "10"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert source in err


@pytest.mark.parametrize("grid", ["pow2:x:3", "pow2:1", "geom:1:2", "1,two"])
def test_unreadable_grid_is_one_line_error(grid, capsys):
    code, out, err = run_err(["semigroup-check", "--tgrid", grid, "--n", "10"], capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("flags", [["--left", "x", "--right", "3"],
                                   ["--left", "1.5", "--right", "3", "--grid", "0"]])
def test_unreadable_interval_is_one_line_error(flags, capsys):
    code, out, err = run_err(["interval-certify"] + flags, capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("flags, config, missing", [
    (["--right", "3"], {}, "--left"),
    (["--left", "1.5"], {}, "--right"),
    ([], {}, "--left, --right"),
    ([], {"right": "3"}, "--left"),
])
def test_interval_endpoints_are_required_after_the_config(flags, config, missing, tmp_path,
                                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_err(["interval-certify", *flags, "--config", str(cfg)], capsys)
    assert (code, out, err) == (1, "", f"error: the following arguments are required: {missing}\n")


def test_config_switches_read_the_text_json_reports_echo(tmp_path, capsys):
    # meta.config writes every value through str, so a switch reads "True"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"left": "1.5", "right": "3", "left_closed": "True",
                               "right_closed": "False"}))
    assert run(["interval-certify", "--config", str(cfg)], capsys) == run(
        ["interval-certify", "--left", "1.5", "--right", "3", "--left-closed"], capsys)


def test_config_values_are_read_with_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "8", "value": "0.1"}))
    code, out = run(["gen-gamma", "--config", str(cfg)], capsys)
    assert code == 0
    assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 8
    # the header echoes what the equivalent flags would give
    assert out == run(["gen-gamma", "--n", "8", "--value", "0.1"], capsys)[1]


@pytest.mark.parametrize("entry", [{"n": "x"}, {"family": "bogus"},
                                   {"right_closed": "yes"}, {"help": True}])
def test_unusable_config_entry_exits_one(entry, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    argv = (["interval-certify", "--left", "1.5", "--right", "3"]
            if "right_closed" in entry else ["gen-gamma"])
    code, out, err = run_err(argv + ["--config", str(cfg)], capsys)
    assert code == 1 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("content, says", [
    (b"[1, 2]", "must hold a JSON object of flags"),
    (b"null", "must hold a JSON object of flags"),
    (b'{"bogus": 1}', "config key 'bogus' is not a flag of this subcommand"),
    (b'{"command": "pi-table", "n": 5}', "is for the command 'pi-table', not 'gen-gamma'"),
    (b'{"command": null}', "is for the command None, not 'gen-gamma'"),
    (b'{"n": "x"}', "config key 'n' cannot take the value 'x'"),
    (b"{not json", "cannot read config"),
    (b"\xff\xfe{}", "cannot read config"),
    (None, "cannot read config"),
])
def test_config_problems_are_one_line_errors(content, says, tmp_path, capsys):
    # a list used to end in an AttributeError traceback, undecodable bytes in
    # a UnicodeDecodeError one, and the other lines lacked the error: prefix
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    code, out, err = run_err(["gen-gamma", "--config", str(cfg)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert says in err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    # used to exit through SystemExit without the error: prefix
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_err(["gen-gamma", "--n", "4", "--out", str(target)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.startswith(f"error: cannot write {target}: ")


def src_env():
    """The environment of a child process that imports mrlab from this tree."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def mrlab_process(*argv, **kwargs):
    """mrlab as the console script runs it, in a child process."""
    return subprocess.Popen([sys.executable, "-c",
                             "import sys; from mrlab.cli import main; sys.exit(main())", *argv],
                            env=src_env(), stderr=subprocess.PIPE, text=True, **kwargs)


def assert_one_write_error(proc, target):
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"error: cannot write {target}: "), err


@pytest.mark.parametrize("argv", [["gen-gamma", "--n", "20000"], ["pi-table", "--n", "100000"]])
def test_a_reader_that_stops_early_ends_in_one_error_line(argv):
    # used to end in a BrokenPipeError traceback and an "Exception ignored"
    # line from the flush at interpreter exit
    proc = mrlab_process(*argv, stdout=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    assert_one_write_error(proc, "stdout")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["gen-gamma", "--n", "5"], ["pi-table", "--n", "100000"]])
def test_a_full_device_ends_in_one_error_line(argv):
    # a short table fails at close, a long one at a write and again at close
    proc = mrlab_process(*argv, "--out", "/dev/full", stdout=subprocess.DEVNULL)
    assert_one_write_error(proc, "/dev/full")
    with open("/dev/full", "w") as full:
        assert_one_write_error(mrlab_process(*argv, stdout=full), "stdout")


COLD_SCANS = """
import contextlib, io, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(3)
from mrlab.cli import main
alphas = ",".join(f"{a / 10:g}" for a in range(1, 36))
for argv in (["semigroup-check"], ["uncond-constant", "--n", "20", "--mode", "sampled"],
             ["gen-gamma", "--format", "json", "--n", "1500"],
             *(["bv-bound", "--alpha", alphas, "--tgrid", "geom:0.01:10:30", "--format", f]
               for f in ("csv", "json"))):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_cold_scans_leave_numpy_ma_unimported():
    # np.unique without return flags calls np.ma.is_masked, whose first call
    # in a process imports numpy.ma (about 15 ms): the positivity scan's times
    # and the sampled ascent's blocks used to; the float dedup, whose sorted
    # path bv-bound's 1050-row t column takes, calls it with return_inverse
    proc = subprocess.run([sys.executable, "-c", COLD_SCANS], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_gamma_needs_a_positive_length(n, capsys):
    code, out, err = run_err(["gen-gamma", "--n", n], capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("n", ["-3", "0", "1"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_uncond_constant_needs_two_terms(n, mode, capsys):
    code, out, err = run_err(["uncond-constant", "--n", n, "--mode", mode], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == "error: need n >= 2\n"


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-5"], ["--samples", "1"],
                                   ["--k", "0"], ["--k", "-1"]])
def test_rad_norm_edge_inputs_are_one_line_errors(flags, capsys):
    # a standard error needs two draws and a Rademacher sum one term
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(["rad-norm", "--blocks", "3"] + flags, capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_bip_check_needs_a_pair(pairs, capsys):
    code, out, err = run_err(["bip-check", "--pairs", pairs], capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("flags", [["--angles", "nan"], ["--radii", "nan"],
                                   ["--angles", "1.0,nan"], ["--radii", "1,nan"]])
def test_sector_probe_rejects_nan_parameters(flags, capsys):
    code, out, err = run_err(["sector-probe", "--n", "10"] + flags, capsys)
    assert_one_line_usage_error(code, out, err)
    assert ("angles must lie" if flags[0] == "--angles" else "radii must be") in err


def test_nan_family_value_is_refused_at_the_ratio_check(capsys):
    code, out, err = run_err(["diag-norm", "--family", "constant", "--value", "nan"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "ratio value at position 1 is outside (0, 0.125)" in err


@pytest.mark.parametrize("argv", [
    ["interval-certify", "--left", "1.5", "--right", "3", "--grid", "1e-9"],
    ["interval-certify", "--left", "1.5", "--right", "3", "--grid", "1e-7"],
    ["interval-certify", "--left", "1.5", "--right", "3", "--grid", "5e-324"],
    ["semigroup-check", "--n", "10", "--tgrid", "pow2:-1000000:1000000"],
    ["sector-probe", "--n", "10", "--radii", "geom:1:10:100000000000"],
    ["bv-bound", "--n", "10", "--alpha", "geom:0.1:1:1001", "--tgrid", "geom:0.01:10:1000"],
    # 5·10^15 coordinates: the extremizer and the witness sequence used to end
    # in a MemoryError traceback; diag-norm now forms arrays of --blocks entries
    ["diag-norm", "--blocks", "100000000"],
    ["dissipativity", "--block", "100000000"],
    # 10^10 rays: the probe's per-ray arrays used to fail to allocate 74.5 GiB
    ["sector-probe", "--gamma", "lacunary", "--n", "10", "--angles", "geom:0.1:1:100000",
     "--radii", "geom:1:10:100000"],
])
def test_oversized_grid_is_refused_before_it_is_built(argv, capsys):
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    if argv[0] == "diag-norm":
        assert ("--blocks 100000000 asks for an array of 100000000 entries; "
                "at most 10000000 are allowed") in err
    elif argv[0] == "dissipativity":
        assert "a truncation takes at most 20000000 coordinates, not 5000000050000000" in err
    else:
        assert "a grid takes 1 to 1000000 points, not " in err


@pytest.mark.parametrize("argv, flags, entries", [
    # each used to end in a MemoryError traceback, or to try to allocate
    # gigabytes, before the limit was checked
    (["gen-gamma", "--n", "100000000"], "--n 100000000", 100000000),
    (["pi-table", "--n", "100000000"], "--n 100000000", 100000001),
    (["bv-bound", "--n", "100000000"], "--n 100000000", 100000000),
    # bip-check forms arrays of the ratio blocks its pairs read, one a block:
    # 2·10^14 indices lie in 2·10^7 blocks
    (["bip-check", "--pairs", "100000000000000"], "--pairs 100000000000000", 20000000),
    (["rbound-blowup", "--blocks", "100,100000000"], "--blocks 100000000", 100000001),
    (["dissipativity", "--onset-max", "100000000"], "--onset-max 100000000", 100000001),
    (["semigroup-check", "--n", "100000000"], "--n 100000000", 200000008),
    (["sector-probe", "--n", "100000000"], "--n 100000000", 200000008),
    # a result a trial of each of the 3 x 7 default rays
    (["sector-probe", "--n", "64", "--trials", "100000000"], "--trials 100000000 on 21 rays",
     2100000000),
    (["sector-probe", "--n", "1", "--trials", "10000000"], "--trials 10000000 on 21 rays",
     210000000),
    (["uncond-constant", "--n", "100000", "--mode", "sampled"], "--n 100000",
     2000 * 312537501),
    (["rad-norm", "--blocks", "6000"], "--k 10 with --blocks 6000", 180030000),
    (["rad-norm", "--k", "100000000", "--blocks", "2"], "--k 100000000 with --blocks 2",
     300000000),
    # past the exact limit, one row block of signs: block_rows(3) x k
    (["rad-norm", "--k", "20000", "--blocks", "2"], "--k 20000 with --blocks 2",
     21845 * 20000),
    # the 2000 sampled sign rows times a layout of 282376 coordinates; a
    # (3000, 282376) basis matrix, no longer formed, used to fail to allocate 12.6 GiB
    (["uncond-constant", "--n", "3000", "--mode", "sampled"], "--n 3000", 2000 * 282376),
    # the 2000 sampled sign rows times the 5050 coordinates of n = 394 used
    # to take 10100000 cells, a 185 MiB tracemalloc peak
    (["uncond-constant", "--n", "394", "--mode", "sampled"], "--n 394", 2000 * 5050),
])
def test_oversized_array_is_refused_before_it_is_built(argv, flags, entries, capsys):
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == (f"error: {flags} asks for an array of {entries} entries; "
                   f"at most 10000000 are allowed\n")


@pytest.mark.parametrize("argv, arrays", [
    # 105000 results and a batch of 8 rows of 2016 coordinates; trials x dim
    # (10080000), an array the batched ascent never forms, used to be refused
    (["sector-probe", "--n", "2000", "--trials", "5000"],
     (("--n 2000", 4008), ("--trials 5000 on 21 rays", 105000), ("--n 2000", 8 * 2016))),
    # 8 bytes a sample; samples x k (14000000) used to be refused
    (["rad-norm", "--k", "14", "--blocks", "2", "--samples", "1000000"],
     (("--k 14 with --blocks 2", 42), ("--samples 1000000", 1000000))),
])
def test_the_size_record_states_the_arrays_held(argv, arrays):
    size = stated_size(argv)
    assert size.arrays == arrays
    cli._admit(size)


@pytest.mark.parametrize("argv", [
    ["sector-probe", "--n", "10", "--radii", "geom:1:10:0"],
    ["sector-probe", "--n", "10", "--angles", "geom:1:2:0"],
    ["sector-probe", "--n", "10", "--angles", "pow2:1:0"],
    ["bip-check", "--pairs", "3", "--tgrid", "pow2:1:0"],
    ["bv-bound", "--n", "10", "--alpha", "pow2:1:0"],
    ["semigroup-check", "--n", "10", "--tgrid", "geom:1:2:0"],
])
def test_empty_grid_is_refused(argv, capsys):
    # empty angles or alphas used to give an empty table and exit 0, an
    # empty bip-check grid a TypeError, empty radii a ValueError
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert "a grid takes 1 to 1000000 points, not 0" in err


@pytest.mark.parametrize("argv", [["rbound-blowup", "--p", "inf", "--blocks", "10,20"],
                                  ["diag-norm", "--p", "inf"]])
def test_infinite_exponent_has_no_holder_splitting(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert "1/2 = 1/p + 1/q" in err


def test_diag_norm_refuses_a_p_whose_conjugate_rounds_to_2(capsys):
    # 2p/(p - 2) rounds to 2 at p = 1e17: the refusal used to name a q that
    # no flag gave, "q must be finite and > 2"
    code, out, err = run_err(["diag-norm", "--p", "1e17"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "p = 1e+17" in err
    code, out = run(["diag-norm", "--p", "1e16"], capsys)
    assert code == 0 and "\n10000000000000000,2.0000000000000004," in out


def _counting_checks(monkeypatch):
    from mrlab import acceptance

    calls = []

    def fake(number):
        def check():
            calls.append(number)
            return acceptance.CheckResult(number, f"fake-{number}", True, 0.0, 1.0, "")
        return check

    monkeypatch.setattr(acceptance, "CHECKS", [fake(i) for i in range(1, 13)])
    return calls


def test_selftest_only_runs_the_selected_checks(monkeypatch, capsys):
    calls = _counting_checks(monkeypatch)
    code, out = run(["selftest", "--only", "12,3"], capsys)
    assert code == 0
    assert calls == [3, 12]
    assert out.count("[PASS]") == 2


def test_selftest_unknown_check_number_exits_one(monkeypatch, capsys):
    calls = _counting_checks(monkeypatch)
    code, out, err = run_err(["selftest", "--only", "3,99"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "99" in err
    assert calls == []


def test_dissipativity_overflow_is_one_line_error(capsys):
    # the closed form overflows to inf at block 45; inf > 1e-9 * inf is
    # false, so the comparison used to pass and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(["dissipativity", "--family", "constant",
                                  "--block", "45", "--onset-max", "200"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "45" in err


VALUES_PAST = "the block-{} witness reads sequence values past float64"
GEOMETRIC_PAST = ("--block {} reads ratios past the 1070 blocks on which the geometric family "
                  "stays positive")


@pytest.mark.parametrize("argv, why, last", [
    (["--block", "129"], VALUES_PAST, 86),
    (["--block", "6000"], VALUES_PAST, 86),
    (["--family", "constant", "--value", "0.001", "--block", "6000"], VALUES_PAST, 424),
    (["--family", "powerlog", "--block", "75"], VALUES_PAST, 53),
    (["--family", "geometric", "--block", "6000"], GEOMETRIC_PAST, 1068),
    (["--family", "geometric", "--block", "1069"], GEOMETRIC_PAST, 1068),
])
def test_dissipativity_past_the_float_range_is_refused_in_block_terms(argv, why, last, capsys):
    # the witness solves the sequence through index end(block) + 2; past the
    # float64 range it used to build --block 6000's 1.8·10^7 values (599 MiB)
    # and then name index 8378, which no flag gave.  Now at most the prefix up
    # to the range's end is solved: 1.8·10^5 values at constant 0.001.  The
    # geometric family's ratios stay positive on 1070 blocks, of which the
    # witness reads block + 2: its refusal named 6002, a count no flag gave.
    # Each names the largest block that runs, which the default family's
    # pairing sets below its float range (block 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, peak = traced_peak(["dissipativity", *argv])
    out, err = capsys.readouterr()
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: {why.format(argv[-1])}; the largest block that runs is {last}\n"
    if why == VALUES_PAST:
        assert peak < 16 * 2 ** 20
    # the block named runs
    code, out, err = run_err(["dissipativity", *argv[:-1], str(last), "--onset-max", "10"],
                             capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("block", range(84, 132))
def test_dissipativity_refusals_name_the_largest_block_that_runs(block, capsys):
    # with the default family the pairing overflows from block 87 on and the
    # sequence values from block 129 on; both refusals name block 86
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(["dissipativity", "--block", str(block), "--onset-max", "10"],
                                 capsys)
    if block <= 86:
        assert (code, err) == (0, "")
    else:
        assert_one_line_usage_error(code, out, err)
        why = VALUES_PAST if block >= 129 else "the block-{} pairing overflows float64"
        assert err == f"error: {why.format(block)}; the largest block that runs is 86\n"


@pytest.mark.parametrize("onset_max", [1069, 1070, 2000])
def test_dissipativity_geometric_onset_past_its_blocks_is_refused_in_flag_terms(onset_max, capsys):
    # the onset scan reads ratio blocks 1..onset-max + 1, and the geometric
    # family stays positive on 1070 blocks: the refusal named 2001 blocks
    # "asked for", a count no flag gave
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(["dissipativity", "--family", "geometric",
                                  "--onset-max", str(onset_max)], capsys)
    if onset_max <= 1069:
        assert (code, err) == (0, "")
    else:
        assert_one_line_usage_error(code, out, err)
        assert err == (f"error: --onset-max {onset_max} reads ratios past the 1070 blocks on "
                       "which the geometric family stays positive; the largest value that "
                       "runs is 1069\n")


@pytest.mark.parametrize("finite, refused, last", [
    (467, False, None), (466, True, 29), (465, True, 29), (437, True, 29), (436, True, 28)])
def test_dissipativity_refuses_exactly_the_blocks_reading_past_the_finite_prefix(
        finite, refused, last, monkeypatch, capsys):
    # block 30 reads through index end(30) + 2 = 467; block 29 ends at 435
    def stub(ratios, length):
        return min(finite, length)

    monkeypatch.setattr(certify, "finite_length", stub)
    code, out, err = run_err(["dissipativity", "--block", "30"], capsys)
    if refused:
        assert_one_line_usage_error(code, out, err)
        assert err.endswith(f"the largest block that runs is {last}\n")
    else:
        assert (code, err) == (0, "")


INT64_EDGES = [str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64)]
PAST_INT64 = [
    *[(["semigroup-check", "--n", n], "asks for an array") for n in INT64_EDGES],
    *[(["sector-probe", "--n", n], "asks for an array") for n in INT64_EDGES],
    *[(["uncond-constant", "--mode", "sampled", "--n", n], "asks for an array")
      for n in INT64_EDGES],
    (["bip-check", f"--pairs={-2 ** 63 - 1}"], "the pair bound needs at least one pair"),
    (["rbound-blowup", f"--blocks={-2 ** 63 - 1}"], "target blocks start at 7"),
]


@pytest.mark.parametrize("argv, message", PAST_INT64, ids=[" ".join(a) for a, _ in PAST_INT64])
def test_sizes_past_int64_are_one_line_errors(argv, message, capsys):
    # the size records were formed in int64 before the caps were read: past
    # 2^63 - 1 a flag ended in an OverflowError traceback, and at 2^63 - 1
    # the triangular end of the block index overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("p", ["1.001", "200", "1000"])
def test_sector_probe_at_extreme_exponents_runs_clean(p, capsys):
    # the duality map weighed each block by bn^(e-2) unscaled, for e = p and
    # q = p/(p-1): the weights left the float range, numpy warned and the
    # ascents stalled on NaN images
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_err(["sector-probe", "--n", "50", "--p", p], capsys)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == ["angle", "radius", "lower_bound", "bv_norm"]
    lower = [float(row[2]) for row in rows[1:]]
    assert len(lower) == 21 and all(0.0 < x < math.inf for x in lower)


@pytest.mark.parametrize("argv, message", [
    (["semigroup-check", "--n", "10", "--tol", "nan"], "tolerance must be finite and >= 0"),
    (["semigroup-check", "--n", "10", "--tol", "-1"], "tolerance must be finite and >= 0"),
    (["semigroup-check", "--n", "10", "--tol", "inf"], "tolerance must be finite and >= 0"),
    (["bip-check", "--pairs", "3", "--tgrid", "inf"], "times must be finite"),
    (["bip-check", "--pairs", "3", "--tgrid", "1,-inf"], "times must be finite"),
    (["bip-check", "--pairs", "3", "--tgrid", "nan"], "times must be finite"),
    (["bv-bound", "--alpha", "2000", "--tgrid", "1"], "alpha < 1024/3"),
    (["bv-bound", "--alpha", "1e300", "--tgrid", "1"], "alpha < 1024/3"),
    (["bv-bound", "--alpha", "inf", "--tgrid", "1"], "alpha < 1024/3"),
    (["bv-bound", "--alpha", "1e-300", "--tgrid", "1"], "2^alpha > 1"),
    (["semigroup-check", "--n", "10", "--tgrid", "geom:-1:1:5"], "cannot read grid"),
    # 2^1100 overflowed with a numpy warning and ran on inf times; 2^-1100
    # read 0.0 and the subnormal times gave bip-check NaN ratios
    (["semigroup-check", "--n", "10", "--tgrid", "pow2:1000:1100"], "cannot read grid"),
    (["bip-check", "--tgrid", "pow2:-1100:-1000"], "cannot read grid"),
    # the geometric values round to 0.0 past block 1070; these used to be
    # refused at "ratio value at position 1071", a position no flag gave
    (["gen-gamma", "--family", "geometric", "--n", "1000000"],
     "the geometric family stays positive up to length 571915; length 1000000 was asked for"),
    (["diag-norm", "--family", "geometric", "--blocks", "2000"],
     "the geometric family stays positive on 1070 blocks; 2000 were asked for"),
])
def test_non_finite_parameters_are_one_line_errors(argv, message, capsys):
    # a NaN or negative tolerance used to exit 2 as a broken invariant; an
    # infinite time warned from numpy and read 0.0, a NaN time read 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_a_bad_tolerance_is_refused_before_the_positivity_scan(tol, monkeypatch, capsys):
    scans = []
    monkeypatch.setattr(multiplier, "positivity_check",
                        lambda op, grid: scans.append(grid) or positivity_check(op, grid))
    assert run_err(["semigroup-check", "--n", "10", "--tol", "0"], capsys)[0] == 0
    assert len(scans) == 1   # the scan a good tolerance runs
    code, out, err = run_err(["semigroup-check", "--n", "10", "--tol", tol], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "tolerance must be finite and >= 0" in err and len(scans) == 1


@pytest.mark.parametrize("tgrid", ["-1,2", "nan", "1,nan"])
def test_a_bad_grid_is_named_before_a_bad_tolerance(tgrid, capsys):
    code, out, err = run_err(["semigroup-check", "--n", "10", "--tgrid=" + tgrid, "--tol", "nan"],
                             capsys)
    assert_one_line_usage_error(code, out, err)
    assert "the time grid must be nonempty and nonnegative" in err


P_CHECK = "exponent must satisfy p > 1 (or p = inf)"


@pytest.mark.parametrize("argv, message", [
    (["rad-norm", "--p", "-inf"], P_CHECK),
    (["rad-norm", "--p", "-nan"], P_CHECK),
    (["rad-norm", "--p", "-1e5"], P_CHECK),
    (["sector-probe", "--p", "-INF"], P_CHECK),
    (["diag-norm", "--p", "-Infinity"], "the diagonal characterization needs p > 2"),
    (["uncond-constant", "--p", "-1.5E+2"], P_CHECK),
    (["rbound-blowup", "--p", "-.5e1"], "the blow-up experiments live at p > 2"),
    (["diag-norm", "--alpha", "-1e-3"], "alpha must lie in (0, 1/2)"),
    (["gen-gamma", "--family", "power", "--alpha", "-1e-3"], "alpha must lie in (0, 1/2)"),
    (["semigroup-check", "--n", "10", "--tol", "-1e-9"], "tolerance must be finite and >= 0"),
    (["semigroup-check", "--n", "10", "--tol", "-NaN"], "tolerance must be finite and >= 0"),
    (["rbound-blowup", "--blocks", "-5,7"], "target blocks start at 7"),
    (["bv-bound", "--alpha", "-1,2"], "2^alpha > 1"),
    (["semigroup-check", "--tgrid", "-1,2"], "the time grid must be nonempty and nonnegative"),
    (["sector-probe", "--angles", "-1,2"], "angles must lie strictly between 0 and pi"),
    (["sector-probe", "--radii", "-1,2"], "radii must be positive"),
    # a negative block count used to be sized as k(k+1)/2 coordinates and
    # refused as too large; it reads as the count 0 does
    (["rad-norm", "--blocks", "-100000"], "need at least one block"),
    (["diag-norm", "--blocks", "-100000"], "ratio sequence has no values"),
    (["dissipativity", "--block", "-100000"], "block numbers are 1-based"),
])
def test_negative_numbers_in_every_float_spelling_reach_the_value_checks(argv, message, capsys):
    # argparse took -inf, -nan, exponent forms and comma lists led by a
    # negative number for flags and stopped at "expected one argument"; they
    # now read as the --flag=value spelling does
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert message in err
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run_err(joined, capsys) == (code, out, err)


def test_negative_comma_list_reads_as_its_joined_spelling(capsys):
    code, out, err = run_err(["bip-check", "--tgrid", "-1,2"], capsys)
    assert code == 0 and err == ""
    assert run_err(["bip-check", "--tgrid=-1,2"], capsys) == (code, out, err)


@pytest.mark.parametrize("value", ["-x", "-1e", "-infx", "--inf", "-1,x"])
def test_words_after_a_minus_sign_are_still_flags(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rad-norm", "--p", value])
    captured = capsys.readouterr()
    assert_one_line_usage_error(exc.value.code, captured.out, captured.err)
    assert "argument --p: expected one argument" in captured.err


@pytest.mark.parametrize("p", ["0.5", "nan"])
def test_sector_probe_checks_the_exponent_when_every_ray_is_singular(p, capsys):
    # no ascent ran, so none checked p: this exited 0 with a table,
    # "# skipped 1 singular parameters" and "p": NaN in the config line
    code, out, err = run_err(["sector-probe", "--angles", "3.1415926535897927", "--radii", "4",
                              "--p", p, "--n", "10"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: {P_CHECK}\n"


@pytest.mark.parametrize("argv, message", [
    (["semigroup-check", "--n", "0"], "--n must be at least 1"),
    (["semigroup-check", "--n", "-5"], "--n must be at least 1"),
    (["sector-probe", "--n", "-5"], "--n must be at least 1"),
    (["sector-probe", "--trials", "0"], "--trials must be at least 1"),
    (["sector-probe", "--trials", "-1"], "--trials must be at least 1"),
])
def test_counts_below_one_are_refused(argv, message, capsys):
    # each used to exit 0, on a one-coordinate truncation or with one trial
    # per ray, under a header that echoed the count it did not use
    code, out, err = run_err(argv, capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"


def stated_size(argv):
    """The size record the subcommand of argv states before it builds anything."""
    args = cli._build_parser("0").parse_args(argv)
    return next(args.func(args))


def traced_peak(argv):
    """main(argv) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_refused_probe_builds_nothing(capsys):
    # the operator of 4·10^6 coordinates used to be built before its trials
    # per ray were refused: a 343 MiB peak; 10^6 trials on 21 rays are
    # 2.1·10^7 results
    code, peak = traced_peak(["sector-probe", "--n", "4000000", "--trials", "1000000"])
    assert_one_line_usage_error(code, *capsys.readouterr())
    assert peak < 2 * 2 ** 20


# the most a call may peak at, per 8 bytes of the largest array its record
# states, at sizes where that array outweighs the fixed buffers (the probe
# batches 2^14 cells), with a quarter to spare over the highest case:
# sector-probe --n 200000 --trials 1 at 11.3 times its 2 n + 8 permutation,
# the operator (4.5), one ray's entries (1.3), and its ascent's iterate,
# image, squares and adjoint entries with their temporaries (5.5)
PEAK_FACTOR = 14


@pytest.mark.parametrize("argv", [
    ["gen-gamma", "--n", "30000"],
    ["pi-table", "--n", "30000"],
    ["semigroup-check", "--n", "200000"],
    ["bv-bound", "--n", "1000000", "--alpha", "0.25", "--tgrid", "1"],
    ["bip-check", "--pairs", "1000000"],
    ["bip-check", "--pairs", "1000000000000"],
    ["sector-probe", "--n", "200000", "--trials", "1", "--angles", "1", "--radii", "1"],
    ["sector-probe", "--n", "20000", "--radii", "1,1000"],
    ["rad-norm", "--k", "2", "--blocks", "1000", "--samples", "100"],
    ["rad-norm", "--k", "14", "--blocks", "2", "--samples", "700000"],
    ["rbound-blowup", "--blocks", "100,1000000"],
    ["diag-norm", "--blocks", "4000"],
    ["interval-certify", "--left", "1.5", "--right", "3", "--grid", "1e-4"],
    ["dissipativity", "--onset-max", "1000000"],
    ["uncond-constant", "--n", "60", "--mode", "sampled"],
], ids=" ".join)
def test_peak_memory_stays_within_the_stated_size(argv, tmp_path):
    size = stated_size(argv)
    largest = max(size.dim, size.points or 0, *(entries for _, entries in size.arrays))
    code, peak = traced_peak(argv + ["--out", str(tmp_path / "table")])
    assert code == 0
    assert peak <= PEAK_FACTOR * 8 * largest


def test_probe_results_peak_near_eight_bytes_each(tmp_path):
    # a float64 a (ray, trial) result, the batches' arrays joined once: 2.4
    # times 8 B a result at 5·10^5 trials of one dim-1 ray, the one batch of
    # 2^14 ascents held beside them; a Python float a result in a list read 5.3
    trials = 500_000
    code, peak = traced_peak(["sector-probe", "--n", "1", "--trials", str(trials), "--angles",
                              "1", "--radii", "1", "--out", str(tmp_path / "table")])
    assert code == 0
    assert peak <= 3 * 8 * trials
