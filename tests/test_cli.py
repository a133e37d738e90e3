import argparse
import json

import numpy as np
import pytest

from mfglab import cli, errors
from mfglab.cli import EXIT_CODES, build_parser, main
from mfglab.model import scenario_path, set_by_path


def test_check_catalog_ou(tmp_path):
    code = main(["check", "--scenario", "ou", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "ou-check" / "summary.json").read_text())
    assert not summary["failures"]
    manifest = json.loads((tmp_path / "ou-check" / "manifest.json").read_text())
    assert manifest["scenario_hash"]
    assert "summary.json" in manifest["outputs"]


def test_malformed_scenario_exit_2(tmp_path):
    raw = json.loads(scenario_path("ou").read_text())
    raw["grid"]["bogus"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = main(["check", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert main(["check", "--scenario", "no_such_catalog",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, dotted, value", [
    ("coupling", "mc.n_paths", 0),
    ("coupling", "mc.t_grid", []),
    ("coupling", "mc.dt", 0),
    ("control", "grid.n_x", 2),
    ("control", "grid.dt", 0),
    ("mfg", "horizon", -1),
    ("check", "mu0.var", 0),
    ("coupling", "mc.t_grid", [0.001]),   # a one-step moment plateau
], ids=str)
def test_malformed_value_exit_2(tmp_path, capsys, command, dotted, value):
    raw = json.loads(scenario_path("ou").read_text())
    head, _, leaf = dotted.partition(".")
    if leaf:
        raw[head][leaf] = value
    else:
        raw[head] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main([command, "--scenario", str(bad), "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and err.count("\n") == 1, err


def test_rates_outputs(tmp_path):
    code = main(["rates", "--scenario", "ou", "--out", str(tmp_path)])
    assert code == 0
    run = tmp_path / "ou-rates"
    assert (run / "metric_base.csv").exists()
    header = json.loads((run / "metric_base.csv.json").read_text())
    assert header["lambda"] == pytest.approx(0.5, abs=1e-8)
    assert (run / "plot.gp").exists()


@pytest.fixture(scope="module")
def quick_mean_scenario(tmp_path_factory):
    raw = json.loads(scenario_path("lq_mean").read_text())
    raw["grid"] = {"x_min": -3.0, "x_max": 3.0, "n_x": 151, "dt": 2e-3}
    out = tmp_path_factory.mktemp("sc") / "quick_mean.json"
    out.write_text(json.dumps(raw))
    return out


def test_turnpike_repeat_determinism(quick_mean_scenario, tmp_path):
    for tag in ("a", "b"):
        code = main(["turnpike", "--scenario", str(quick_mean_scenario),
                     "--out", str(tmp_path / tag), "--seed", "42"])
        assert code == 0
    csv_a = (tmp_path / "a" / "lq_mean-turnpike" / "turnpike.csv").read_bytes()
    csv_b = (tmp_path / "b" / "lq_mean-turnpike" / "turnpike.csv").read_bytes()
    assert csv_a == csv_b
    summary = json.loads((tmp_path / "a" / "lq_mean-turnpike"
                          / "summary.json").read_text())
    moment = summary["assertions"]["turnpike_moment"]
    assert moment["pass"]
    assert isinstance(moment["measured"], float)
    assert isinstance(moment["bound"], float)


def test_double_well_turnpike_repeat_determinism(tmp_path):
    """A coarse double-well turnpike (conv-tanh interaction, T = 8) writes
    the same turnpike.csv and summary.json twice."""
    raw = json.loads(scenario_path("double_well_small").read_text())
    raw["grid"] = {"x_min": -4.0, "x_max": 4.0, "n_x": 101, "dt": 1e-3}
    raw["horizon"] = 8.0
    sc = tmp_path / "quick_dw.json"
    sc.write_text(json.dumps(raw))
    out = []
    for tag in ("a", "b"):
        assert main(["turnpike", "--scenario", str(sc),
                     "--out", str(tmp_path / tag)]) == 0
        run = tmp_path / tag / "double_well_small-turnpike"
        out.append([(run / name).read_bytes()
                    for name in ("turnpike.csv", "summary.json")])
    assert out[0] == out[1]


def test_mu0_outside_mean_bound_exit_2(tmp_path, capsys):
    raw = json.loads(scenario_path("lq_mean").read_text())
    raw["mu0"]["mean"] = 5.0
    bad = tmp_path / "far_mean.json"
    bad.write_text(json.dumps(raw))
    assert main(["check", "--scenario", str(bad), "--out",
                 str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error (config): mu0.mean")


def test_repeat_run_bitwise_identical(quick_mean_scenario, tmp_path):
    for tag in ("r1", "r2"):
        assert main(["mfg", "--scenario", str(quick_mean_scenario),
                     "--out", str(tmp_path / tag), "--seed", "7"]) == 0
    a = (tmp_path / "r1" / "lq_mean-mfg" / "mfg_trace.csv").read_bytes()
    b = (tmp_path / "r2" / "lq_mean-mfg" / "mfg_trace.csv").read_bytes()
    assert a == b


def test_sweep_lambda_star_monotone(tmp_path):
    code = main(["sweep", "--scenario", "lq_mean", "--out", str(tmp_path),
                 "--param", "interaction.c", "--values", "0.0,0.05,0.1"])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    lam = [float(r.split(",")[1]) for r in rows]
    assert lam[0] >= lam[1] >= lam[2]
    assert all(float(r.split(",")[3]) == 1 for r in rows)
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_sweep_integer_values(tmp_path):
    # JSON parsing keeps 301 an integer, so grid.n_x is sweepable
    code = main(["sweep", "--scenario", "lq_mean", "--out", str(tmp_path),
                 "--param", "grid.n_x", "--values", "301,401"])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["301", "401"]
    assert main(["sweep", "--scenario", "lq_mean", "--out", str(tmp_path),
                 "--param", "grid.n_x", "--values", "301.0"]) == 2
    assert main(["sweep", "--scenario", "lq_mean", "--out", str(tmp_path),
                 "--param", "regime", "--values", "high"]) == 2


def test_sweep_bad_param_path(tmp_path):
    code = main(["sweep", "--scenario", "lq_mean", "--out", str(tmp_path),
                 "--param", "interaction.not_a_key.c", "--values", "0.1"])
    assert code == 2
    for param in ("grid.typo", "horizon.x"):
        assert main(["sweep", "--scenario", "lq_mean", "--out",
                     str(tmp_path), "--param", param, "--values", "1"]) == 2


def test_numerical_failure_exit_3(tmp_path):
    # dt = 0.01 puts the explicit advection of the value solve past its CFL
    # guard (|b| dt / dx = 3 at the box edge): a NumericalError, exit 3
    raw = json.loads(scenario_path("ou").read_text())
    raw["grid"]["dt"] = 0.01
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(raw))
    assert main(["control", "--scenario", str(coarse), "--out",
                 str(tmp_path)]) == 3


def test_each_subcommand_parses_only_what_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    common = {"--scenario", "--out", "--seed"}
    expected = {"rates": set(), "check": set(), "control": set(),
                "coupling": {"--threads"}, "ergodic": {"--force"},
                "mfg": {"--force", "--tol"},
                "turnpike": {"--force", "--tol", "--threads"},
                "sweep": {"--param", "--values"}}
    got = {name: {o for a in p._actions for o in a.option_strings
                  if o.startswith("--") and o != "--help"} - common
           for name, p in sub.choices.items()}
    assert got == expected
    assert build_parser().parse_args(
        ["mfg", "--scenario", "ou", "--tol", "0"]).tol == 0.0
    for argv in (["check", "--force"], ["rates", "--tol", "1e-3"],
                 ["ergodic", "--tol", "1e-3"], ["sweep", "--threads", "2",
                                                "--param", "interaction.c",
                                                "--values", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--scenario", "ou"] + argv[1:])
        assert exc.value.code == 2, argv
    # the benchmark's turnpike command line passes --threads 1
    assert build_parser().parse_args(
        ["turnpike", "--scenario", "ou", "--threads", "1"]).threads == 1


def test_every_error_has_a_kind():
    # every module of the package is imported by now: a class defined
    # anywhere would show up in this walk
    found, todo = set(), [errors.MfglabError]
    while todo:
        subs = todo.pop().__subclasses__()
        found.update(subs)
        todo.extend(subs)
    assert found == {errors.ConfigError, errors.CertificationError,
                     errors.NumericalError, errors.FixedPointError}
    for cls in found:
        assert cls.kind in EXIT_CODES, cls
        assert issubclass(cls, (ValueError, RuntimeError)), cls


def test_coupling_subcommand_small(tmp_path):
    raw = json.loads(scenario_path("ou").read_text())
    raw["mc"] = {"n_paths": 4000, "dt": 1e-3,
                 "master_seed": 20240901, "t_grid": [1.0, 2.0]}
    quick = tmp_path / "ou_small.json"
    quick.write_text(json.dumps(raw))
    code = main(["coupling", "--scenario", str(quick), "--out",
                 str(tmp_path), "--threads", "2"])
    assert code == 0
    csv = (tmp_path / "ou-coupling" / "coupling.csv").read_text()
    assert csv.splitlines()[0] == "t,mean_f,se_f,bound_f,p_neq,se_p,bound_p"


def test_coupling_duplicate_times_exit_2(tmp_path):
    raw = json.loads(scenario_path("ou").read_text())
    raw["mc"] = {"n_paths": 200, "dt": 1e-3,
                 "master_seed": 20240901, "t_grid": [0.5, 0.5]}
    dup = tmp_path / "ou_dup.json"
    dup.write_text(json.dumps(raw))
    assert main(["coupling", "--scenario", str(dup), "--out",
                 str(tmp_path)]) == 2


def test_failed_run_leaves_no_finished_directory(tmp_path):
    raw = json.loads(scenario_path("ou").read_text())
    raw["mc"] = {"n_paths": 4000, "dt": 1e-3,
                 "master_seed": 20240901, "t_grid": [1.0, 2.0]}
    good = tmp_path / "ou_good.json"
    good.write_text(json.dumps(raw))
    # one output step leaves the moment plateau nothing to fit: exit 2
    # after coupling.csv is written
    raw["mc"]["t_grid"] = [0.001]
    bad = tmp_path / "ou_bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out"
    run = out / "ou-coupling"
    assert main(["coupling", "--scenario", str(good), "--out",
                 str(out)]) == 0
    assert (run / "summary.json").exists()
    assert main(["coupling", "--scenario", str(bad), "--out",
                 str(out)]) == 2
    left = {p.name for p in run.iterdir()}
    assert not left & {"coupling.csv", "summary.json", "manifest.json"}


def test_crashed_run_leaves_no_finished_directory(tmp_path, monkeypatch):
    assert main(["check", "--scenario", "ou", "--out", str(tmp_path)]) == 0

    def crash(sc):
        raise RuntimeError("not a mfglab error")

    monkeypatch.setattr(cli, "check_smallness", crash)
    with pytest.raises(RuntimeError, match="not a mfglab error"):
        main(["check", "--scenario", "ou", "--out", str(tmp_path)])
    left = {p.name for p in (tmp_path / "ou-check").iterdir()}
    assert not left & {"probes.json", "summary.json", "manifest.json"}


def double_well_small_file(tmp_path, overrides):
    raw = json.loads(scenario_path("double_well_small").read_text())
    for dotted, value in overrides.items():
        set_by_path(raw, dotted, value)
    path = tmp_path / "double_well_small.json"
    path.write_text(json.dumps(raw))
    return path


def test_check_records_no_certified_rate(tmp_path):
    path = double_well_small_file(tmp_path, {
        "interaction.c": 0.01, "mu0.mean": 0.0, "running_cost.C_x_L": 5.0})
    assert main(["check", "--scenario", str(path), "--out",
                 str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "double_well_small-check"
                          / "summary.json").read_text())
    condition = summary["assertions"]["strength_condition"]
    assert condition["certified"] is False
    assert condition["lambda_star"] == 0.0


def test_sweep_without_certified_rate_records_no_error(tmp_path):
    code = main(["sweep", "--scenario", "double_well_small", "--out",
                 str(tmp_path), "--param", "running_cost.C_x_L",
                 "--values", "0.1,3,5,10"])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.split(",")[4] == "" for r in rows)


def test_sweep_with_error_row_exits_with_its_kind(tmp_path):
    # the Z audit rejects the shifted metric at C_x_L 1.5: the sweep
    # records a certification error, and no assertion failed
    code = main(["sweep", "--scenario", "double_well_small", "--out",
                 str(tmp_path), "--param", "running_cost.C_x_L",
                 "--values", "1.5,3"])
    assert code == EXIT_CODES["certification"] == 2
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["CertificationError", ""]


def test_check_base_without_rate_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    main(["check", "--scenario", "double_well_small", "--out", str(out)])
    run = out / "double_well_small-check"
    assert (run / "summary.json").exists()
    path = double_well_small_file(tmp_path, {"diffusion.sigma": 0.03})
    assert main(["check", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error (certification): ")
    left = {p.name for p in run.iterdir()}
    assert not left & {"probes.json", "summary.json", "manifest.json"}


def test_coupling_thread_determinism(tmp_path):
    # 5000 paths are one chunk, so --threads 2 draws its noise ahead on the
    # spare worker while --threads 1 draws it inline: same bytes out
    raw = json.loads(scenario_path("ou").read_text())
    raw["mc"] = {"n_paths": 5000, "dt": 1e-3,
                 "master_seed": 20240901, "t_grid": [1.0, 2.0]}
    quick = tmp_path / "ou_small.json"
    quick.write_text(json.dumps(raw))
    for threads in ("1", "2"):
        assert main(["coupling", "--scenario", str(quick), "--out",
                     str(tmp_path / threads), "--threads", threads]) == 0
    for name in ("coupling.csv", "summary.json"):
        one = (tmp_path / "1" / "ou-coupling" / name).read_bytes()
        two = (tmp_path / "2" / "ou-coupling" / name).read_bytes()
        assert one == two, name
