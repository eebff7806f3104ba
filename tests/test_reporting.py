import json
import math
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from symbeta import operator, reporting, thermo
from symbeta.cli import _COMMANDS, _FLAGS, build_parser, config_from_args, main
from symbeta.operator import EigenData
from symbeta.reporting import (ConfigError, RunConfig, cmd_check, cmd_expand,
                               cmd_spectrum, cmd_thermo, cmd_words, cmd_zerotemp,
                               render_report)


def test_config_round_trip():
    cfg = RunConfig(m=3, beta="3.5", depth=4, potential="digit_table:0.3,0.0,0.1,0.05",
                    t_grid=(1.0, 2.0, 4.0), tol=1e-13, fmt="jsonl", a="0.75")
    text = ("m = 3\nbeta = 3.5\ndepth = 4\npotential = digit_table:0.3,0.0,0.1,0.05\n"
            "# a comment\n\nt_grid = 1.0,2.0,4.0\ntol = 1e-13\nfmt = jsonl\na = 0.75\n")
    assert RunConfig.from_mapping(RunConfig.parse_text(text)) == cfg


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(m=0)
    with pytest.raises(ConfigError):
        RunConfig(fmt="xml")
    with pytest.raises(ConfigError):
        RunConfig(t_grid=())
    # the grid's order is checked where zerotemp reads it
    with pytest.raises(ConfigError):
        cmd_zerotemp(RunConfig(t_grid=(2.0, 1.0)))
    with pytest.raises(ConfigError):
        RunConfig(potential="mystery:1")
    with pytest.raises(ConfigError):
        RunConfig.from_mapping(RunConfig.parse_text("m = 3\nnot_a_key = 1\n"))


def test_cmd_expand_golden():
    cfg = RunConfig(m=1, beta="golden", a="1", depth=8)
    rep = cmd_expand(cfg)
    assert rep.summary["greedy"] == "11000000"
    assert rep.summary["lazy"] == "01111111"
    assert rep.summary["quasi_greedy"] == "10101010"
    assert rep.summary["unique"] is False


def test_cmd_expand_requires_a():
    with pytest.raises(ConfigError):
        cmd_expand(RunConfig(m=1, beta="golden"))


def test_cmd_expand_zero_and_non_integer_base():
    rep0 = cmd_expand(RunConfig(m=1, beta="golden", a="0", depth=6))
    assert rep0.summary["greedy"] == "000000"
    assert rep0.summary["unique"] is True
    rep = cmd_expand(RunConfig(m=3, beta="3.5", a="1", depth=5))
    assert rep.summary["greedy"] == "31220"


def test_cmd_check_surfaces_warnings():
    rep = cmd_check(RunConfig(m=4, beta="4", depth=4))
    assert rep.summary["transitivity"] == "transitive"
    assert rep.summary["digit_interval_integers"] == [2]
    assert any("interval" in w for w in rep.warnings)
    rep35 = cmd_check(RunConfig(m=3, beta="3.5", depth=4))
    assert rep35.summary["transitivity"] == "unknown"
    assert any("transitivity" in w for w in rep35.warnings)


def test_cmd_words_counts():
    rep = cmd_words(RunConfig(m=2, beta="beta_T", depth=2))
    assert rep.summary["count"] == 7
    assert rep.summary["forbidden_words"] == ["00", "22"]
    assert rep.n_rows == 7


def test_cmd_spectrum_full_shift():
    cfg = RunConfig(m=3, beta="4", depth=2, potential="zero")
    rep = cmd_spectrum(cfg)
    assert rep.summary["lambda"] == pytest.approx(4.0, abs=1e-10)
    assert rep.summary["lk_vs_power"] < 1e-8
    assert rep.summary["row_sum_residual"] < 1e-10
    assert rep.exit_code == 0


def test_cmd_spectrum_propagates_lower_warnings():
    cfg = RunConfig(m=3, beta="3.5", depth=4, potential="zero")
    rep = cmd_spectrum(cfg)
    assert any("transitivity unknown" in w for w in rep.warnings)


def test_cmd_spectrum_full_dump():
    cfg = RunConfig(m=3, beta="4", depth=2, potential="zero")
    assert cmd_spectrum(cfg).n_rows == 10
    assert cmd_spectrum(cfg, full=True).n_rows == 16


def test_spectrum_full_reads_eigenvectors_once(monkeypatch):
    # EigenData.psi and .rho exponentiate the whole vector on every read
    reads = {"psi": 0, "rho": 0}

    def counting(name):
        plain = getattr(EigenData, name).fget

        def read(self):
            reads[name] += 1
            return plain(self)
        return property(read)

    for name in reads:
        monkeypatch.setattr(EigenData, name, counting(name))
    rep = cmd_spectrum(RunConfig(m=3, beta="3.5", depth=5, potential="zero"), full=True)
    assert rep.n_rows >= 100
    assert reads["psi"] <= 3 and reads["rho"] <= 3


def _count_calls(monkeypatch, fn) -> list:
    """Count the calls of ``fn`` made through any module name bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    for mod in (operator, thermo, reporting):
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("cmd, solves", [(cmd_spectrum, 1), (cmd_thermo, 1),
                                         (cmd_zerotemp, 3)])
def test_each_solve_builds_its_gibbs_state_once(cmd, solves, monkeypatch):
    counts = [_count_calls(monkeypatch, fn) for fn in
              (thermo.gibbs_measure, operator.normalize_potential, thermo.entropy_of_gibbs)]
    cfg = RunConfig(m=3, beta="3.5", depth=4, potential="digit_table:0.3,0,0.1,0.05",
                    t_grid=(1.0, 2.0, 64.0))
    assert cmd(cfg).exit_code == 0
    assert [len(c) for c in counts] == [solves] * 3


def test_spectrum_and_zerotemp_print_one_identity_residual():
    cfg = RunConfig(m=3, beta="3.5", depth=7, potential="digit_table:0.3,0,0.1,0.05",
                    t_grid=(1.0,))
    resid = cmd_spectrum(cfg).summary["identity_residual"]
    assert cmd_zerotemp(cfg).columns["identity_residual"] == [resid]
    assert resid > 0.0


def test_import_does_not_load_scipy():
    import os, subprocess, sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, symbeta.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_module_entry_point():
    import os, subprocess, sys
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-m", "symbeta", "expand", "--m", "1", "--beta",
         "golden", "--a", "1", "--depth", "6"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "110000" in out.stdout


def test_render_determinism_and_jsonl_validity():
    cfg = RunConfig(m=3, beta="4", depth=2, potential="digit_table:0.2,0,0.1,0.0",
                    fmt="jsonl")
    rep1 = cmd_spectrum(cfg)
    rep2 = cmd_spectrum(cfg)
    out1 = render_report(rep1, "jsonl")
    out2 = render_report(rep2, "jsonl")
    assert out1 == out2
    records = [json.loads(line) for line in out1.strip().splitlines()]
    kinds = {r["record"] for r in records}
    assert "config" in kinds and "summary" in kinds
    for fmt in ("table", "csv"):
        assert render_report(rep1, fmt) == render_report(rep2, fmt)


def test_cmd_zerotemp_csv():
    cfg = RunConfig(m=3, beta="4", depth=2, potential="digit_table:0.3,0,0.1,0.05",
                    t_grid=(1.0, 4.0, 16.0, 64.0), fmt="csv")
    rep = cmd_zerotemp(cfg)
    out = render_report(rep, "csv")
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("t,pressure,entropy,average")
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# CLI entry point and exit codes


def test_cli_success(capsys):
    code = main(["expand", "--m", "1", "--beta", "golden", "--a", "1", "--depth", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "110000" in out


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("symbeta ")]


@pytest.mark.parametrize("argv", _readme_commands() + [
    ["thermo", "--m", "3", "--beta", "3.5", "--depth", "6",
     "--potential", "digit_table:0.3,0,0.1,0.05"],
    # depth 8 has words whose suffix starts no word
    ["thermo", "--m", "3", "--beta", "3.5", "--depth", "8",
     "--potential", "digit_table:0.3,0,0.1,0.05"],
], ids=lambda argv: " ".join(argv[:7]))
def test_documented_commands_exit_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_cli_invalid_config(capsys):
    assert main(["check", "--m", "3", "--beta", "9.5"]) == 2
    assert main(["zerotemp", "--m", "3", "--beta", "4", "--t-grid", "4,2"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_regime_refusal(capsys):
    code = main(["spectrum", "--m", "2", "--beta", "beta_T", "--depth", "3"])
    assert code == 3
    assert "refused" in capsys.readouterr().err


def test_cli_kneading_too_shallow(capsys):
    # canonical sampling of a geometric potential reads more digits than
    # the truncated kneading sequence can certify
    code = main(["spectrum", "--m", "3", "--beta", "3.5", "--depth", "4",
                 "--kneading-depth", "8",
                 "--potential", "geometric:c=0.3,theta=0.25,kmax=32"])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: potential reads 32 digits but the kneading sequence is only "
        "known to depth 8; sample points beyond it cannot be certified "
        "(increase --kneading-depth)\n")


def test_cli_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("m = 2\nbeta = beta_T\ndepth = 2\nfmt = table\n")
    code = main(["words", "--config", str(cfgfile), "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["m"] == 2 and first["fmt"] == "jsonl"


def test_cli_env_tol_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMBETA_TOL", "1e-10")
    code = main(["check", "--m", "3", "--beta", "4", "--depth", "2",
                 "--format", "jsonl"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.splitlines()[0])["tol"] == 1e-10
    # explicit flag wins over the environment
    main(["check", "--m", "3", "--beta", "4", "--depth", "2", "--tol", "1e-9",
          "--format", "jsonl"])
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[0])["tol"] == 1e-9


def test_cli_byte_identical_runs(capsys):
    args = ["thermo", "--m", "3", "--beta", "4", "--depth", "2",
            "--potential", "digit_table:0.2,0,0.1,0.05", "--format", "jsonl"]
    main(args)
    out1 = capsys.readouterr().out
    main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_spectrum_ranks_by_weight_and_ties_only_within_rounding():
    # seven words with one digit 3 weigh the same in exact arithmetic; their
    # computed weights differ in the last bits, so they may come in any
    # order, but a word listed before a lex-smaller one must be heavier by
    # more than rounding or tie with it to a few ulps
    rep = cmd_spectrum(RunConfig(m=4, beta="5", depth=7, seed=2,
                                 potential="geometric:c=1.0635,theta=0.2488,kmax=12"))
    mu, words = rep.columns["mu"], rep.columns["word"].tolist()
    assert np.all(np.diff(mu) <= 0)
    ties = 0
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            if words[i] > words[j]:
                gap = mu[i] - mu[j]
                ties += gap <= 16 * math.ulp(mu[i])
                assert gap <= 16 * math.ulp(mu[i]) or gap > 1e-9 * mu[i], (words[i], words[j])
    assert ties > 0


def _parse(parser, argv, capsys):
    """(exit status or None, stdout, stderr, RunConfig or None) of parsing
    argv with one parser."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err, None
    out = capsys.readouterr()
    return None, out.out, out.err, config_from_args(args)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_cli_parser_of_one_command_reads_as_the_full_parser(command, capsys):
    # main builds the flags of the invoked subcommand only; its help, its
    # usage errors and the configuration it parses are the full parser's
    every_field = ["--m", "4", "--beta", "4.7", "--depth", "3", "--tol", "1e-9",
                   "--format", "jsonl", "--seed", "2", "--max-period", "3", "--t-grid", "1,2",
                   "--kneading-depth", "40", "--potential", "digit_table:0,1,0,1,0"]
    cases = [["--help"], [], every_field, ["--bogus"], ["--m"], ["--a", "0.5"], ["--full"],
             ["--dep", "3"]]
    for argv in cases:
        full = _parse(build_parser(), [command, *argv], capsys)
        assert _parse(build_parser(command), [command, *argv], capsys) == full, argv
    assert _parse(build_parser(), [command, "--help"], capsys)[1].count("--") > 10


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--m", "3", "check"]])
def test_cli_without_a_command_gets_every_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == _parse(build_parser(), argv, capsys)[:3]


@pytest.mark.parametrize("argv, config_text", [
    (["check"], "m = x\n"),
    (["zerotemp"], "t_grid = 1,x\n"),
    (["zerotemp", "--t-grid", "1,x"], None),
    (["check", "--m", "x"], None),
    (["check", "--tol", "abc"], None),
    (["check", "--format", "xml"], None),
    (["thermo", "--depth", "2", "--t-grid", ","], None),
    (["spectrum", "--depth", "2", "--tol", "nan"], None),
    (["zerotemp", "--depth", "2"], "t_grid = 1,inf\n"),
    (["thermo", "--m", "3", "--beta", "4", "--depth", "3", "--seed", "-1"], None),
    (["thermo", "--m", "3", "--beta", "4", "--depth", "3", "--max-period", "0"], None),
    (["spectrum", "--m", "3", "--beta", "4", "--depth", "3",
      "--potential", "digit_table:0.1,0.2"], None),
    (["spectrum", "--m", "3", "--beta", "4", "--depth", "3",
      "--potential", "digit_table:nan,0,0,0"], None),
    (["spectrum", "--m", "3", "--beta", "4", "--depth", "3",
      "--potential", "block_table:1:0=1"], None),
    # expand's --a: outside [0, m/(beta-1)], not a number, and too large
    # for a float
    *[(["expand", "--m", "3", "--beta", "3.5", "--a", a], None)
      for a in ("2", "-1", "abc", "1e400")],
], ids=lambda v: " ".join(v) if isinstance(v, list) else repr(v))
def test_cli_malformed_value_exits_2(argv, config_text, tmp_path, capsys):
    if config_text is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config_text)
        argv = argv + ["--config", str(cfgfile)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert not captured.out


@pytest.mark.parametrize("potential", [
    "geometric:c=1,kmax=-3", "geometric:c=1,kmax=0", "block_table:-1:", "block_table:0:"])
def test_cli_potential_of_no_digits_exits_2(potential, capsys):
    # a block or a geometric sum must read at least one digit
    argv = ["spectrum", "--m", "3", "--beta", "4", "--depth", "3", "--potential", potential]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: bad potential spec: ")
    assert not captured.out


@pytest.mark.parametrize("config_text", ["log_threshold = 16\n", "irreducibility_j = 8\n"])
def test_cli_removed_config_keys_exit_2(config_text, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(config_text)
    assert main(["check", "--m", "3", "--beta", "4", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown config key")


def test_every_config_field_but_a_has_a_flag():
    # ``a`` is expand's own --a; no setting may be reachable from a config
    # file alone
    assert {f.name for f in fields(RunConfig)} - set(_FLAGS) == {"a"}


def test_cli_unreadable_sources_exit_2(tmp_path, capsys, monkeypatch):
    assert main(["check", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file")
    monkeypatch.setenv("SYMBETA_TOL", "abc")
    assert main(["check", "--m", "1", "--beta", "golden"]) == 2
    assert capsys.readouterr().err.startswith("config error: bad value for tol")


def test_cli_precedence_file_env_flag(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("m = 2\ntol = 1e-8\nfmt = jsonl\n")
    base = ["check", "--beta", "2.5", "--depth", "2", "--config", str(cfgfile)]

    def config_record(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out.splitlines()[0])

    assert config_record(base)["tol"] == 1e-8
    monkeypatch.setenv("SYMBETA_TOL", "1e-9")
    assert config_record(base)["tol"] == 1e-9
    rec = config_record(base + ["--tol", "1e-10", "--m", "1", "--beta", "golden"])
    assert (rec["tol"], rec["m"]) == (1e-10, 1)


def test_cli_checks_only_the_merged_config(tmp_path, capsys):
    # the file alone fails (kneading_depth <= depth + 1); the flag mends it
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("depth = 6\nkneading_depth = 5\n")
    argv = ["words", "--m", "1", "--beta", "golden", "--config", str(cfgfile)]
    assert main(argv) == 2
    assert main(argv + ["--kneading-depth", "64"]) == 0
    assert "count" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code", [
    # exp(tA) overflows at t = 32 unless the solve takes log scale there
    ("zerotemp --m 3 --beta 4 --depth 3 --potential digit_table:30,0,0,0", 0),
    ("zerotemp --m 3 --beta 3.5 --depth 5 --potential geometric:c=20,theta=0.25,kmax=12", 0),
    ("thermo --m 3 --beta 4 --depth 3 --potential digit_table:800,0,0,0", 0),
    ("thermo --m 3 --beta 4 --depth 3 --potential digit_table:1e300,0,0,0", 0),
    # spectrum's lambda and lk_solve are linear-scale: refused
    ("spectrum --m 3 --beta 4 --depth 3 --potential digit_table:800,0,0,0", 3),
    ("spectrum --m 3 --beta 4 --depth 3 --potential digit_table:1e300,0,0,0", 3),
    ("spectrum --m 3 --beta 4 --depth 3 --potential digit_table:-800,-800,-800,-800", 3),
], ids=lambda v: v if isinstance(v, str) else None)
def test_cli_large_potentials_exit_without_traceback(argv, code, capsys):
    # any numpy warning fails the test (filterwarnings), as does a raise
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.startswith("refused: max |A| = ")
        assert not captured.out


def test_cli_thermo_puts_a_huge_potential_on_its_maximizing_orbit(capsys):
    # the gauged solve takes t A = 1e300 on digit 0 without rounding the
    # other words' weights away: the Gibbs state is the fixed point 0^oo
    argv = "thermo --m 3 --beta 4 --depth 3 --potential digit_table:1e300,0,0,0"
    assert main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    for want in ("average 1e+300", "identity_residual 0.0", "converged True"):
        assert any(ln.split() == want.split() for ln in lines), want


def test_cli_thermo_says_why_it_exits_4(capsys):
    code = main(["thermo", "--m", "3", "--beta", "3.5", "--depth", "3",
                 "--potential", "digit_table:0.3,0,0.1,0.05", "--tol", "1e-30"])
    assert code == 4
    assert "WARNING: power iteration did not converge (residual" in capsys.readouterr().out


def test_cli_thermo_exits_4_when_the_solve_runs_into_max_iter(monkeypatch, capsys):
    # exit 4 by construction: both halves are cut at 3 steps
    solve = operator.power_solve
    monkeypatch.setattr(operator, "power_solve",
                        lambda *args, **kwargs: solve(*args, **{**kwargs, "max_iter": 3}))
    code = main(["thermo", "--m", "3", "--beta", "3.5", "--depth", "3",
                 "--potential", "digit_table:0.3,0,0.1,0.05"])
    assert code == 4
    assert "WARNING: power iteration did not converge (residual" in capsys.readouterr().out


def test_cli_thermo_solves_only_at_t_1(capsys):
    # the pressure asymptote at large t is zerotemp's; thermo's one solve,
    # at t = 1, converges on this system
    code = main(["thermo", "--m", "3", "--beta", "3.5", "--depth", "6",
                 "--potential", "geometric:c=1,theta=0.25,kmax=12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "did not converge" not in out
    assert "max_average_upper" not in out


def test_cli_spectrum_exits_4_on_an_unconverged_cross_check(monkeypatch, capsys):
    argv = ["spectrum", "--m", "3", "--beta", "3.5", "--depth", "4",
            "--potential", "digit_table:0.3,0,0.1,0.05"]
    assert main(argv) == 0
    converged_out = capsys.readouterr().out
    solve = reporting.lk_solve
    monkeypatch.setattr(reporting, "lk_solve", lambda *args, **kwargs: replace(
        solve(*args, **kwargs), converged=False))
    assert main(argv) == 4
    out = capsys.readouterr().out
    # the same report, with the verdict's warning appended
    assert out.startswith(converged_out)
    assert out[len(converged_out):].startswith(
        "WARNING: lk_solve cross-check did not converge (lk_vs_power ")


def test_cli_spectrum_exits_4_when_lambda_misses_the_lk_bias(monkeypatch, capsys):
    argv = ["spectrum", "--m", "3", "--beta", "3.5", "--depth", "4",
            "--potential", "digit_table:0.3,0,0.1,0.05"]
    build = reporting._build_solved

    def shifted(*args, **kwargs):
        # a lambda wrong by 1e-9, every other solver output left as it is
        p, K, A, T = build(*args, **kwargs)
        eig = replace(T.eigen, log_lam=math.log(T.eigen.lam + 1e-9))
        return p, K, A, replace(T, eigen=eig)

    monkeypatch.setattr(reporting, "_build_solved", shifted)
    assert main(argv) == 4
    assert "WARNING: lk_solve cross-check misses its exact bias by " in capsys.readouterr().out


@pytest.mark.parametrize("pot", [
    # a periodic-orbit tie: an undamped lk iteration oscillates here
    "digit_table:20,0,0,0",
    # lk_lambda's bias, 1/(k <rho, psi_k>), is 5.9e-3 of lambda here
    "geometric:c=20,theta=0.4,kmax=12",
])
def test_cli_spectrum_cross_check_passes_on_a_strong_potential(pot, capsys):
    assert main(["spectrum", "--m", "3", "--beta", "3.5", "--depth", "7",
                 "--potential", pot]) == 0
    assert "lk_solve" not in capsys.readouterr().out


def test_cli_check_separates_kneading_digits_above_9(capsys):
    assert main(["check", "--m", "12", "--beta", "12.5", "--depth", "2",
                 "--format", "jsonl"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[1])
    kneading = summary["kneading"]
    assert not kneading["exact"]
    assert kneading["upper_prefix"][:8] == [12, 6, 3, 1, 7, 0, 4, 11]
    assert kneading["upper"] == ",".join(map(str, kneading["upper_prefix"])) + "..."


# ---------------------------------------------------------------------------
# the word block against the row join


def _words_report(m, beta, depth):
    return reporting.cmd_words(RunConfig(m=m, beta=beta, depth=depth))


@pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
@pytest.mark.parametrize("m, beta, depth", [(3, "3.5", 4), (3, "3.5", 8), (1, "golden", 3)])
def test_word_block_equals_row_join(m, beta, depth, fmt, monkeypatch):
    rep = _words_report(m, beta, depth)
    block = reporting.render_report(rep, fmt)
    monkeypatch.setattr(reporting, "_digit_block", lambda cols: False)
    assert reporting.render_report(rep, fmt) == block


def test_word_block_chunks():
    D = _words_report(3, "3.5", 8).columns["word"]
    assert len(D) > 2 * reporting.BLOCK_ROWS
    chunks = reporting._word_block(D, "<", ">")
    assert len(chunks) == -(-len(D) // reporting.BLOCK_ROWS)
    assert all(c.count("\n") == reporting.BLOCK_ROWS - 1 for c in chunks[:-1])
    cells = reporting._word_cells(D)
    assert "\n".join(chunks) == "\n".join(reporting._join_rows(["<", ">"], [cells]))


def test_word_block_of_no_rows():
    D = np.zeros((0, 4), dtype=np.uint8)
    assert reporting._word_block(D, "<", ">") == [] == reporting._join_rows(["<", ">"], [[]])
    rep = reporting.Report("words", RunConfig(), columns={"word": D})
    for fmt in ("table", "csv", "jsonl"):
        assert "<" not in reporting.render_report(rep, fmt)


@pytest.mark.parametrize("cmd, cfg", [
    (reporting.cmd_words, RunConfig(m=12, beta="12.5", depth=2)),
    (lambda cfg: reporting.cmd_spectrum(cfg, full=True),
     RunConfig(m=3, beta="3.5", depth=3, potential="digit_table:0.3,0,0.1,0.05")),
    (reporting.cmd_thermo, RunConfig(m=3, beta="4", depth=2)),
    (reporting.cmd_zerotemp, RunConfig(m=3, beta="4", depth=2, t_grid=(1.0, 2.0))),
], ids=["words-m12", "spectrum", "thermo", "zerotemp"])
def test_other_reports_take_the_row_join(cmd, cfg, monkeypatch):
    rep = cmd(cfg)
    assert rep.n_rows
    assert not reporting._digit_block(list(rep.columns.values()))

    def refuse(*args):
        raise AssertionError("word block used")

    monkeypatch.setattr(reporting, "_word_block", refuse)
    for fmt in ("table", "csv", "jsonl"):
        reporting.render_report(rep, fmt)


# ---------------------------------------------------------------------------
# t_grid is checked by zerotemp only


def test_thermo_ignores_an_unordered_t_grid(capsys):
    argv = ["thermo", "--m", "3", "--beta", "4", "--depth", "2"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--t-grid", "2,1"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("grid, message", [
    ("2,1", "t_grid must be strictly increasing"),
    ("1,inf", "t_grid must be a non-empty list of finite values"),
])
def test_zerotemp_rejects_a_bad_t_grid(grid, message, capsys):
    assert main(["zerotemp", "--m", "3", "--beta", "4", "--depth", "2",
                 "--t-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert not captured.out


# ---------------------------------------------------------------------------
# words are stored as uint8 digits


def test_m_above_255_is_a_config_error(capsys):
    argv = ["--m", "256", "--beta", "200", "--depth", "3"]
    for cmd in ("check", "words", "spectrum", "thermo", "zerotemp"):
        assert main([cmd] + argv) == 2, cmd
        captured = capsys.readouterr()
        assert captured.err == "config error: m = 256 > 255: words are stored as uint8 digits\n"
        assert not captured.out
    # expand stores no word
    assert main(["expand"] + argv + ["--a", "1"]) == 0
    assert "greedy" in capsys.readouterr().out
