"""Command line driver: output contracts, config files, exit codes."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import walshlab
import walshlab.cli as cli
from walshlab.cli import main, parse_config_text, serialize_config

REPRO = Path(__file__).resolve().parent.parent / "reproduce"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# --- config files -----------------------------------------------------------


def test_config_parse_and_serialize_round_trip():
    text = "# comment\n\nfamily = log\np=0.75\nalphas = 1,2,3\n"
    mapping = parse_config_text(text)
    assert mapping == {"family": "log", "p": "0.75", "alphas": "1,2,3"}
    canonical = serialize_config(mapping)
    # normalization is idempotent
    assert serialize_config(parse_config_text(canonical)) == canonical
    assert canonical == "alphas = 1,2,3\nfamily = log\np = 0.75\n"


def test_config_rejects_duplicates_and_garbage():
    with pytest.raises(Exception):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(Exception):
        parse_config_text("just some words\n")
    with pytest.raises(Exception):
        parse_config_text("= 3\n")


# --- transform --------------------------------------------------------------


def test_transform_constant_spectrum(capsys):
    code, out, _ = run(capsys, "transform", "--f", "const:1", "--n", "3")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "coefficient"]
    assert [r[1] for r in rows] == ["1", "0", "0", "0", "0", "0", "0", "0"]


def test_transform_character_spectrum_is_delta(capsys):
    code, out, _ = run(capsys, "transform", "--f", "walsh:5", "--n", "4")
    assert code == 0
    _, rows = read_csv(out)
    assert rows[5][1] == "1"
    assert all(r[1] == "0" for i, r in enumerate(rows) if i != 5)


def test_transform_file_round_trip(tmp_path, capsys):
    values = np.random.default_rng(9).standard_normal(32)
    src = tmp_path / "values.txt"
    src.write_text("".join(f"{float(v)!r}\n" for v in values))
    spec_path = tmp_path / "spectrum.csv"
    back_path = tmp_path / "back.csv"
    code, _, _ = run(
        capsys, "transform", "--f", f"file:{src}", "--n", "5",
        "--out", str(spec_path), "--full-precision",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "transform", "--inverse", "--f", f"file:{spec_path}", "--n", "5",
        "--out", str(back_path), "--full-precision",
    )
    assert code == 0
    back = np.loadtxt(back_path, delimiter=",", skiprows=1)[:, 1]
    assert np.abs(back - values).max() < 1e-11


def test_transform_resolution_cap_exit_code(capsys):
    code, _, err = run(capsys, "transform", "--f", "const:1", "--n", "99")
    assert code == 4
    assert "resource cap" in err


def test_transform_bad_spec_exit_code(capsys):
    code, _, err = run(capsys, "transform", "--f", "mystery:1", "--n", "3")
    assert code == 2
    assert "config error" in err


def test_transform_dirichlet_spectrum_is_ones_below_the_order(capsys):
    code, out, _ = run(capsys, "transform", "--f", "dirichlet:5", "--n", "4")
    assert code == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["1"] * 5 + ["0"] * 11


# --- kappa and lemma2 -------------------------------------------------------


def test_kappa_table(capsys):
    # padded labels get the same canonical family and threshold
    code, out, _ = run(capsys, "kappa", "log", "vlog", " cesaro:0.25", "ualpha:0.3 ")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["family", "kappa", "positive", "threshold"]
    table = {r[0]: r for r in rows}
    assert table["log"][1] == "0.125"
    assert table["vlog"][1] == "0.36067376"  # %.9g drops the trailing zero
    assert table["cesaro:0.25"][1] == "0.07421875"
    assert table["cesaro:0.25"][3] == "0.561552813"
    assert table["ualpha:0.3"][3] == "0.415037499"
    assert table["log"][3] == table["vlog"][3] == ""  # no threshold order
    assert all(r[2] == "true" for r in rows)


def test_lemma2_log_range(capsys):
    code, out, err = run(capsys, "lemma2", "--family", "log", "--alphas", "1..4")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["family", "alpha", "n", "min_abs_kernel", "kappa", "passed", "vacuous"]
    assert len(rows) == 4
    assert all(r[4] == "0.125" for r in rows)
    assert all(r[5] == "true" for r in rows)
    assert rows[0][3] == "0.25"
    assert "4/4 rows passed" in err


def test_lemma2_vacuous_family(capsys):
    code, out, _ = run(capsys, "lemma2", "--family", "fejer", "--alphas", "1,2")
    assert code == 0
    _, rows = read_csv(out)
    assert all(r[6] == "true" for r in rows)  # vacuous column


def test_lemma2_structure_violation_is_config_error(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("".join(f"{v}\n" for v in range(1, 40)))  # increasing
    code, _, err = run(capsys, "lemma2", "--family", f"custom:{path}", "--alphas", "1")
    assert code == 2
    assert "structure screen" in err


def test_lemma2_vlog_head_below_convexity_is_config_error(capsys):
    # q_0 = 1.9 < DEFAULT_VLOG_Q0 makes (q_0, q_1, q_2) concave
    code, out, err = run(capsys, "lemma2", "--family", "vlog:1.9", "--alphas", "1")
    assert code == 2
    assert out == ""
    assert "structure screen" in err and "convex=False" in err


def test_lemma2_huge_exponent_range_is_a_short_resource_cap(capsys):
    # refused before the 10^8-element range is built
    code, out, err = run(capsys, "lemma2", "--family", "log", "--alphas", "1..100000000")
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ")
    assert len(err) < 200, len(err)


@pytest.mark.parametrize(
    "alphas, low", [("-20000..1", -20000), ("-100000000000..1", -100000000000), ("0,3", 0)]
)
def test_lemma2_exponent_below_one_is_a_short_config_error(capsys, alphas, low):
    # refused by its smallest exponent before a range is built or echoed
    code, out, err = run(capsys, "lemma2", "--family", "log", f"--alphas={alphas}")
    assert code == 2
    assert out == ""
    assert err == f"config error: block exponents must be >= 1, got {low}\n"
    assert len(err) < 200, len(err)


@pytest.mark.parametrize("alphas, top", [("12,13", 13), ("3,13", 13)])
def test_lemma2_over_cap_exponent_list_runs_no_row(monkeypatch, capsys, alphas, top):
    # the largest exponent of a list is checked before any row runs, as a
    # range's is
    ran = []
    monkeypatch.setattr(cli, "kernel_lower_bound_check", lambda w, exps: ran.extend(exps))
    code, out, err = run(capsys, "lemma2", "--family", "log", "--alphas", alphas)
    assert code == 4
    assert out == ""
    assert ran == []
    assert err == (
        f"resource cap: block exponent {top} needs 2^{2 * top} weights, "
        "more than the weight horizon 2^24\n"
    )


def test_lemma2_makes_the_widest_coset_differences_once(monkeypatch, capsys):
    # one generation of the widest row's coset coefficients for every row
    # (the rest are the 5-term structure head and kappa's weights), and no
    # prefix sums at all: the check reads differences of the weights alone
    sizes, sums = [], []
    admit = walshlab.WeightFamily._admit
    stream = walshlab.WeightFamily.Q_chunks
    monkeypatch.setattr(
        walshlab.WeightFamily, "_admit", lambda w, count: sizes.append(count) or admit(w, count)
    )
    monkeypatch.setattr(
        walshlab.WeightFamily,
        "Q_chunks",
        lambda w, count, out=None: sums.append(count) or stream(w, count, out),
    )
    code, _, err = run(capsys, "lemma2", "--family", "log", "--alphas", "1..5")
    assert code == 0, err
    assert [s for s in sizes if s > 5] == [1 << 10], sizes
    assert sums == [], sums


def test_diverge_streams_each_rows_prefix_sums_once(tmp_path, monkeypatch, capsys):
    # each row streams its own prefix sums Q_1..Q_n, n = 2^(2a+1), in one
    # pass, and nothing else makes any (the golden files hold the rows'
    # bytes)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("family = log\np = 0.75\nalphas = 1..5\n")
    sums = []
    stream = walshlab.WeightFamily.Q_chunks
    monkeypatch.setattr(
        walshlab.WeightFamily,
        "Q_chunks",
        lambda w, count, out=None: sums.append(count) or stream(w, count, out),
    )
    code, _, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 0, err
    assert sums == [2 << (2 * a) for a in range(1, 6)], sums


def test_lemma2_too_few_custom_weights_is_config_error(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("".join(f"{1 / j!r}\n" for j in range(1, 21)))
    code, out, err = run(capsys, "lemma2", "--family", f"custom:{path}", "--alphas", "1..3")
    assert code == 2
    assert out == ""
    assert "defines only 20 weights" in err


def test_lemma2_assertion_failure_exit_code(monkeypatch, capsys):
    # exit-code plumbing for a failed hard bound, via a stubbed report
    from walshlab.kernel_checks import KernelBoundReport

    def fake_check(w, exps):
        return [KernelBoundReport(w.label, a, 3, 0.01, 0.125, False) for a in exps]

    monkeypatch.setattr(cli, "kernel_lower_bound_check", fake_check)
    code, _, _ = run(capsys, "lemma2", "--family", "log", "--alphas", "1")
    assert code == 3


# --- diverge ----------------------------------------------------------------


def test_diverge_bundled_log_config(capsys):
    code, out, err = run(capsys, "diverge", "--config", f"{REPRO}/log_p075.cfg")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["k", "N", "weak_lp", "pointwise_floor", "theory_bound", "hardy_estimate", "ratio"]
    assert len(rows) == 5
    ratios = [float(r[6]) for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert "ratios_strictly_increasing=true" in err
    assert "kappa = 0.125" in err


def test_diverge_csv_and_json_carry_identical_values(tmp_path, capsys):
    code, out_csv, _ = run(capsys, "diverge", "--config", f"{REPRO}/cesaro025_p07.cfg")
    assert code == 0
    code, out_json, _ = run(
        capsys, "diverge", "--config", f"{REPRO}/cesaro025_p07.cfg", "--format", "json"
    )
    assert code == 0
    header, rows = read_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["meta"]["ok"] is True
    for row, jrow in zip(rows, payload["rows"]):
        for name, cell in zip(header, row):
            jv = jrow[name]
            if isinstance(jv, float):
                assert float(cell) == jv  # bit-identical after shared rounding
            else:
                assert int(cell) == jv


def test_diverge_non_convex_family_fails_the_structure_screen(tmp_path, capsys):
    # vlog:1.9 has a positive kernel floor but a non-convex head
    assert walshlab.kappa(walshlab.parse_family("vlog:1.9")) > 0
    text = (REPRO / "log_p075.cfg").read_text().replace("family = log", "family = vlog:1.9")
    cfg = tmp_path / "vlog19.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "fails the structure screen" in err


def test_diverge_refuses_an_unknown_format_before_the_run(tmp_path, monkeypatch, capsys):
    # the output is set by flags alone: a config's format or out key is unknown
    ran = []
    monkeypatch.setattr(cli, "divergence_experiment", ran.append)
    out_path = tmp_path / "rows.json"
    for extra, keys in (
        ("format = xml\n", "format"),
        (f"format = json\nout = {out_path}\n", "format, out"),
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = log\np = 0.75\nalphas = 1,2\n" + extra)
        code, out, err = run(capsys, "diverge", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"config error: unknown config keys: {keys}\n"
    assert ran == []
    assert not out_path.exists()


def test_diverge_hypothesis_violation_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "p09.cfg"
    cfg.write_text((REPRO / "cesaro025_p07.cfg").read_text().replace("\np = 0.7\n", "\np = 0.9\n"))
    code, _, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 2
    assert "hypothesis violated" in err


@pytest.mark.parametrize("key", ["alpha_exp", "beta_exp"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_diverge_nonfinite_value_is_config_error(key, value, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"family = log\np = 0.75\nalphas = 1,2\n{key} = {value}\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: hypothesis violated: ")
    assert key in err


def test_diverge_overflowing_beta_exp_is_config_error(tmp_path, capsys):
    # finite, but a^(beta_exp + 1) overflows a double at a = 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = log\np = 0.75\nalphas = 1,2\nbeta_exp = 1e308\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: hypothesis violated: ")
    assert "beta_exp" in err


def test_diverge_oversized_schedule_is_a_short_resource_cap(tmp_path, capsys):
    # the last block needs 2^3200 weights: refused before Q is grown to
    # a horizon of 964 digits
    cfg = tmp_path / "big.cfg"
    cfg.write_text("family = log\np = 0.1\nalphas = 3, 1600\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ") and "2^3200 weights" in err
    assert len(err) < 200, len(err)


def test_diverge_over_cap_exponent_list_runs_no_row(tmp_path, monkeypatch, capsys):
    # a = 12 fits the weight horizon, but its row needs a 25-bit grid,
    # which the experiment refuses before any row runs
    ran = []
    monkeypatch.setattr(walshlab.counterexample, "_row_mean", lambda cfg, k: ran.append(k))
    cfg = tmp_path / "big.cfg"
    cfg.write_text("family = log\np = 0.75\nalphas = 3, 12\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 4
    assert out == ""
    assert ran == []
    assert err == "resource cap: resolution of 25 bits exceeds the cap of 24 (2^24 cells)\n"


def test_diverge_huge_exponent_range_is_a_short_resource_cap(tmp_path, capsys):
    # refused before the 10^11-element range is built
    cfg = tmp_path / "big.cfg"
    cfg.write_text("family = log\np = 0.75\nalphas = 1..100000000000\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 4
    assert out == ""
    assert err.startswith("resource cap: ")
    assert len(err) < 200, len(err)


def test_diverge_exponent_below_one_is_a_short_config_error(tmp_path, capsys):
    cfg = tmp_path / "low.cfg"
    cfg.write_text("family = log\np = 0.75\nalphas = -20000..1\n")
    code, out, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "config error: block exponents must be >= 1, got -20000\n"
    assert len(err) < 200, len(err)


def test_diverge_missing_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = log\np = 0.75\n")
    code, _, err = run(capsys, "diverge", "--config", str(cfg))
    assert code == 2
    assert "alphas" in err


def test_diverge_unknown_key_is_config_error(tmp_path, capsys):
    # the growth constant C is no config field, so a config may not set it
    cfg = tmp_path / "bad.cfg"
    for key in ("turbo = on", "c_const = 0.01"):
        cfg.write_text(f"family = log\np = 0.75\nalphas = 1,2\n{key}\n")
        code, out, err = run(capsys, "diverge", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"config error: unknown config keys: {key.split()[0]}\n"


def test_diverge_failed_verdict_exit_code(tmp_path, monkeypatch, capsys):
    # exit-code plumbing for a run whose verdicts fail, via a stubbed report
    real = cli.divergence_experiment

    def doctored(cfg):
        report = real(cfg)
        object.__setattr__(report, "ratios_strictly_increasing", False)
        return report

    monkeypatch.setattr(cli, "divergence_experiment", doctored)
    code, _, err = run(capsys, "diverge", "--config", f"{REPRO}/log_p075.cfg")
    assert code == 3
    assert "ratios_strictly_increasing=false" in err


# --- monitor ----------------------------------------------------------------


def test_monitor_is_deterministic_given_seed(capsys):
    code, first, _ = run(capsys, "monitor", "--n", "6", "--seed", "11", "--p", "1")
    assert code == 0
    code, second, _ = run(capsys, "monitor", "--n", "6", "--seed", "11", "--p", "1")
    assert code == 0
    assert first == second
    header, rows = read_csv(first)
    assert header == ["n", "ratio"]
    assert len(rows) == 7


def test_monitor_seed_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["monitor", "--n", "4", "--seed", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["monitor", "--n", "4", "--seed", "x"])
    assert exc.value.code == 2
    assert "bad seed 'x'" in capsys.readouterr().err


def test_monitor_records_the_seed_only_for_rand(capsys):
    code, default, _ = run(capsys, "monitor", "--n", "4", "--format", "json")
    assert code == 0
    code, zero, _ = run(capsys, "monitor", "--n", "4", "--seed", "0", "--format", "json")
    assert code == 0
    assert default == zero  # rand with no --seed draws from seed 0
    assert json.loads(default)["meta"]["seed"] == 0
    code, out, _ = run(capsys, "monitor", "--n", "4", "--f", "walsh:1", "--format", "json")
    assert code == 0
    assert "seed" not in json.loads(out)["meta"]


# --- misc -------------------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_kernels_dirichlet_column(capsys):
    code, out, _ = run(capsys, "kernels", "--order", "4", "--n", "3")
    assert code == 0
    _, rows = read_csv(out)
    assert [r[1] for r in rows] == ["4", "0", "0", "0", "4", "0", "0", "0"]


def test_kernels_block_family_defaults_to_log(capsys):
    code, default, _ = run(capsys, "kernels", "--n", "6", "--block", "2")
    assert code == 0
    code, log, _ = run(capsys, "kernels", "--n", "6", "--block", "2", "--family", "log")
    assert code == 0
    assert default == log


def test_mean_of_constant_is_constant(capsys):
    code, out, _ = run(capsys, "mean", "--f", "const:2", "--family", "log", "--n", "3")
    assert code == 0
    _, rows = read_csv(out)
    assert all(r[1] == "2" for r in rows)


# --- shared emit path and error mapping ---------------------------------------


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after ``walshlab ... | head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_is_no_config_error(monkeypatch, capsys):
    from walshlab.kernel_checks import KernelBoundReport

    def fake_check(w, exps):
        return [KernelBoundReport(w.label, a, 3, 0.01, 0.125, False) for a in exps]

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["transform", "--n", "3"]) == 0
    assert capsys.readouterr().err == ""
    # a failed run keeps its own status, and says only what it would have
    monkeypatch.setattr(cli, "kernel_lower_bound_check", fake_check)
    assert main(["lemma2", "--family", "log", "--alphas", "1"]) == 3
    assert capsys.readouterr().err == "lemma2: log, kappa = 0.125, 0/1 rows passed\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("transform", "--n", "0"), "at least 1 bit"),
        (("kernels", "--block", "3", "--n", "3"), "needs at least 7 bits"),
        (("monitor", "--n", "4", "--f", "const:0"), "nonzero function"),
        (("monitor", "--n", "4", "--p", "-1"), "p must be positive"),
        (("kernels", "--n", "4", "--block", "-1"), "block exponent must be >= 0"),
        (("kappa", "--out", "{tmp}/missing/rows.csv"), "No such file"),
        (("transform", "--n", "3", "--format", "json", "--out", "{tmp}/missing/rows.json"),
         "No such file"),
        (("kernels", "--n", "3", "--order", "2", "--family", "log"),
         "--family applies only with --block"),
        (("monitor", "--n", "4", "--p", "inf"), "p must be finite"),
        (("mean", "--n", "3", "--order", "9"), "mean order 9 out of range (1..8)"),
        (("kappa", "log", "bogus"), "unknown weight family 'bogus'"),
        (("diverge", "--config", "{tmp}/p0005.cfg"), "p = 0.005 is too small"),
        (("transform", "--f", "dirichlet:x", "--n", "4"), "bad kernel order 'x'"),
        (("transform", "--f", "dirichlet:0", "--n", "4"), "Dirichlet order 0 out of range"),
        (("transform", "--f", "walsh:8", "--n", "3"), "character index 8 out of range"),
        (("transform", "--f", "walsh:-1", "--n", "3"),
         "character index -1 out of range for 3 bits"),
        (("transform", "--f", "walsh:x", "--n", "3"), "bad character index 'x'"),
        (("transform", "--f", "const:x", "--n", "3"), "bad constant 'x'"),
        (("transform", "--f", "file:{tmp}/missing.txt", "--n", "3"), "cannot read"),
        (("lemma2", "--family", "cesaro:2", "--alphas", "1"), "cesaro order must lie in (0, 1)"),
        (("transform", "--n", "3", "--inverse", "--f", "rand"), "--inverse needs --f file:PATH"),
        (("kernels", "--n", "3", "--order", "9"), "Dirichlet order 9 out of range (1..8)"),
        (("diverge", "--config", "{tmp}/missing.cfg"), "cannot read"),
        (("lemma2", "--family", "log", "--alphas", "1..x"), "bad exponent range '1..x'"),
        (("lemma2", "--family", "log", "--alphas", "3..2"), "empty exponent range '3..2'"),
        (("lemma2", "--family", "log", "--alphas", "1,x"), "bad exponent list '1,x'"),
        (("lemma2", "--family", "log", "--alphas", " , "), "empty exponent list"),
        (("transform", "--f", "rand:junk", "--n", "2"), "rand takes no argument, got 'junk'"),
        (("transform", "--f", "const:1", "--seed", "5", "--n", "2"),
         "--seed applies only to --f rand, not 'const:1'"),
        (("monitor", "--n", "4", "--f", "walsh:1", "--seed", "9"),
         "--seed applies only to --f rand, not 'walsh:1'"),
        (("mean", "--n", "3", "--f", "const:2", "--seed", "0"),
         "--seed applies only to --f rand, not 'const:2'"),
        (("transform", "--n", "3", "--inverse", "--f", "file:{tmp}/missing.txt", "--seed", "1"),
         "--inverse needs --f file:PATH with coefficients, and no --seed"),
        (("transform", "--n", "3", "--f", "const:1e308"), "the input overflows float64"),
        (("mean", "--n", "3", "--f", "const:1e308"), "the input overflows float64"),
        (("monitor", "--n", "3", "--f", "const:1e300", "--p", "2"),
         "the input overflows float64"),
        (("monitor", "--n", "3", "--f", "const:5", "--p", "1e-300"),
         "exponent p must be at least 2^-20, got 1e-300"),
    ],
)
def test_bad_input_is_config_error(argv, message, tmp_path, capsys):
    # a case's id carries its place in the list: a case that leaves gives its
    # place to a new one, and new cases go at the end
    (tmp_path / "p0005.cfg").write_text(
        (REPRO / "log_p075.cfg").read_text().replace("p = 0.75", "p = 0.005")
    )
    # a numpy warning on the way to the refusal fails the case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma2", "--family", "log", "--alphas", "3", "--n", "7"),
        ("diverge", "--config", f"{REPRO}/log_p075.cfg", "--n", "3"),
        ("kappa", "--n", "99"),
        ("transform", "--f", "rand"),
        ("kernels", "--n", "3"),
        ("kernels", "--n", "3", "--order", "2", "--block", "1"),
        ("kappa", "--seed", "5"),
        ("lemma2", "--family", "log", "--alphas", "1", "--seed", "5"),
        ("diverge", "--config", f"{REPRO}/log_p075.cfg", "--seed", "5"),
        ("kernels", "--n", "3", "--order", "2", "--seed", "5"),
        ("diverge", "--config", f"{REPRO}/log_p075.cfg", "--p", "0.9"),
        ("diverge", "--config", f"{REPRO}/log_p075.cfg", "--family", "cesaro:0.25"),
        ("diverge", "--config", f"{REPRO}/log_p075.cfg", "--form", "json"),
        ("monitor", "--n", "4", "--fam", "log"),
    ],
    ids=["lemma2-n", "diverge-n", "kappa-n", "transform-no-n", "kernels-no-mode",
         "kernels-both-modes", "kappa-seed", "lemma2-seed", "diverge-seed", "kernels-seed",
         "diverge-p", "diverge-family", "format-prefix", "family-prefix"],
)
def test_flags_a_subcommand_does_not_read_are_refused(argv, capsys):
    # argparse refuses them before any command runs
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("family = log\nalphas = 1\n", ("diverge", "--config", "{path}"),
         "config is missing required key 'p'"),
        ("family = log\np = abc\nalphas = 1\n", ("diverge", "--config", "{path}"),
         "key 'p': not a number: 'abc'"),
        ("1\n2\nx\n4\n", ("transform", "--n", "2", "--f", "file:{path}"), "bad number 'x'"),
        ("value\n", ("transform", "--n", "2", "--f", "file:{path}"), "no numeric data"),
        # grid length and finiteness come from the library, one wording each
        ("1\n2\n3\n", ("transform", "--n", "2", "--f", "file:{path}"),
         "expected 4 values for a 2-bit grid, got 3"),
        ("1\n2\n3\n", ("transform", "--n", "2", "--inverse", "--f", "file:{path}"),
         "expected 4 values for a 2-bit grid, got 3"),
        ("1\nnan\n3\n4\n", ("transform", "--n", "2", "--inverse", "--f", "file:{path}"),
         "values must be finite"),
    ],
    ids=["missing-p", "p-abc", "bad-number", "no-numbers", "short-file", "short-inverse",
         "nan-coefficient"],
)
def test_bad_input_file_is_config_error(text, argv, message, tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert err.endswith(f"{message}\n")


def test_module_entry_point_exits_2_without_traceback():
    src = str(Path(walshlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "walshlab.cli", "transform", "--n", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def run_with_closed_stderr(*argv):
    # stderr is a pipe whose reader has gone, so every write to it fails
    # with EPIPE; stdout is discarded
    src = str(Path(walshlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "walshlab.cli", *argv],
            stdout=subprocess.DEVNULL, stderr=write_end, env=env, timeout=60,
        ).returncode
    finally:
        os.close(write_end)


def test_closed_stderr_keeps_a_passing_run_at_exit_0():
    assert run_with_closed_stderr("lemma2", "--family", "log", "--alphas", "1") == 0


def test_closed_stderr_keeps_a_config_error_at_exit_2(tmp_path):
    assert run_with_closed_stderr("diverge", "--config", str(tmp_path / "missing.cfg")) == 2


class _ClosedStream:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        raise OSError("no file descriptor")


def test_closed_stderr_keeps_a_failed_verdict_at_exit_3(monkeypatch, capsys):
    from walshlab.kernel_checks import KernelBoundReport

    def fake_check(w, exps):
        return [KernelBoundReport(w.label, a, 3, 0.01, 0.125, False) for a in exps]

    monkeypatch.setattr(cli, "kernel_lower_bound_check", fake_check)
    monkeypatch.setattr(sys, "stderr", _ClosedStream())
    code, out, _ = run(capsys, "lemma2", "--family", "log", "--alphas", "1")
    assert code == 3
    assert out.startswith("family,alpha,n,min_abs_kernel")


def _csv_matches_json(cell, jv):
    if isinstance(jv, bool):
        return cell == ("true" if jv else "false")
    if jv is None:
        return cell == ""
    if isinstance(jv, float):
        return float(cell) == jv
    return type(jv)(cell) == jv


@pytest.mark.parametrize(
    "argv",
    [
        ("transform", "--n", "5", "--f", "rand", "--seed", "3"),
        ("kernels", "--n", "5", "--order", "11"),
        ("kernels", "--n", "5", "--block", "1", "--family", "vlog"),
        ("mean", "--n", "5", "--family", "cesaro:0.25", "--order", "19"),
        ("kappa",),
        ("lemma2", "--family", "vlog", "--alphas", "1..3"),
        ("monitor", "--n", "6", "--family", "log", "--p", "0.75"),
    ],
)
@pytest.mark.parametrize("full", [(), ("--full-precision",)])
def test_csv_and_json_encodings_agree(argv, full, capsys):
    code, out_csv, _ = run(capsys, *argv, *full)
    assert code == 0
    code, out_json, _ = run(capsys, *argv, *full, "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    assert payload["meta"]["command"] == argv[0]
    assert payload["meta"]["version"] == walshlab.__version__
    header, rows = read_csv(out_csv)
    assert len(rows) == len(payload["rows"]) > 0
    for row, jrow in zip(rows, payload["rows"]):
        assert list(jrow) == header
        for name, cell in zip(header, row):
            assert _csv_matches_json(cell, jrow[name]), (name, cell, jrow[name])
