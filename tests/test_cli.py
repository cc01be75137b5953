import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from blocksolve.battery import CaseConfig, build_case
from blocksolve.cli import build_parser, main
from blocksolve.mmio import load_matrix_market


def write_config(tmp_path, **suite_fields):
    cfg = {
        "case": {"nr": 4, "refinement": 0, "n_cells": 1, "case_id": "tiny"},
        "refinements": [0],
        "systems": ["solid_voltage"],
        "subdomains": [2],
        "repetitions": 1,
    }
    cfg.update(suite_fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_generate_exports_matrix_market(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    mono = load_matrix_market(out / "tiny_r0_monolithic.mtx")
    case = build_case(CaseConfig(nr=4, refinement=0, n_cells=1, case_id="tiny"))
    expected = case.system.monolithic()
    assert np.array_equal(mono.indptr, expected.indptr)
    assert np.array_equal(mono.indices, expected.indices)
    assert np.array_equal(mono.data, expected.data)
    for seed in range(5):
        v = np.random.default_rng(seed).standard_normal(mono.shape[1])
        assert np.array_equal(mono @ v, expected @ v)
    rhs = load_matrix_market(out / "tiny_r0_rhs.mtx").toarray().ravel()
    assert np.array_equal(rhs, case.system.rhs_vector())
    meta = json.loads((out / "tiny_r0_meta.json").read_text())
    assert meta["dims"]["phi_s"] == case.grid.n


def test_solve_success_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["solve", "--config", cfg, "--system", "solid_voltage",
                 "--refinement", "0", "--out", str(tmp_path / "res")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "system", "refinement", "p", "dofs", "setup_seconds", "solve_seconds",
        "iterations", "restarts", "final_relative_residual", "converged",
        "precond_applications", "cycle_residuals"}
    assert payload["converged"] is True
    assert payload["iterations"] >= 1
    assert payload["cycle_residuals"][-1] == payload["final_relative_residual"]
    saved = json.loads((tmp_path / "res" / "solve_solid_voltage_r0.json").read_text())
    assert saved == payload


def test_solve_reports_measured_setup_seconds(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--system", "end_to_end"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["setup_seconds"] > 0


def test_solve_reports_the_harness_timings(tmp_path, capsys, monkeypatch):
    import blocksolve.cli as cli
    from blocksolve.krylov import SolveStats

    def fake(case, system, suite, p=1):
        return 0.5, 0.25, SolveStats(iterations=3, converged=True,
                                     final_relative_residual=1e-7), None

    monkeypatch.setattr(cli, "run_experiment", fake)
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--system", "solid_voltage"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["setup_seconds"] == 0.5 and payload["solve_seconds"] == 0.25
    assert payload["iterations"] == 3


def test_solve_unknown_system_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--system", "bogus"]) == 2


def test_suite_writes_records_and_reports(tmp_path):
    cfg = write_config(tmp_path, systems=["solid_voltage", "end_to_end"])
    out = tmp_path / "suite"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
    records = json.loads((out / "records.json").read_text())
    assert len(records) == 2
    table = (out / "table.md").read_text()
    assert "End-to-End Solve" in table
    csv_text = (out / "records.csv").read_text()
    assert csv_text.splitlines()[0].startswith("case_id,")


def test_suite_failure_exit_code(tmp_path, monkeypatch):
    import blocksolve.bench as bench
    from blocksolve.krylov import SolveStats

    def fake(case, system, suite, p=1):
        return 0.0, 0.0, SolveStats(iterations=500, converged=False,
                                    final_relative_residual=0.5), None

    monkeypatch.setattr(bench, "run_experiment", fake)
    cfg = write_config(tmp_path)
    assert main(["suite", "--config", cfg, "--out", str(tmp_path / "s")]) == 1


def write_records(tmp_path, rows):
    """A records file of converged cells, one (system, refinement, P, dofs,
    iterations) tuple per record."""
    records = [
        {"case_id": "c", "refinement": r, "system": system, "solver": "s", "p": p,
         "repetitions": 1, "iterations": its, "converged": True,
         "final_relative_residual": 1e-8, "mean_setup_seconds": 0.1,
         "std_setup_seconds": 0.0, "mean_solve_seconds": 0.1,
         "std_solve_seconds": 0.0, "dofs": dofs}
        for system, r, p, dofs, its in rows
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    return str(path)


def test_fit_command_weak(tmp_path, capsys):
    # fixed dofs per subdomain: P quadruples with the problem size, and the
    # iterations double
    path = write_records(tmp_path, [("end_to_end", k, 4**k, 330 * 4**k, 12 * 2**k)
                                    for k in range(3)])
    out = tmp_path / "fit"
    assert main(["fit", "--records", path, "--system", "end_to_end",
                 "--out", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result == json.loads((out / "fit_end_to_end.json").read_text())
    assert result["system"] == "end_to_end" and result["strong"] == []
    [family] = result["weak"]
    assert family["dofs_per_subdomain"] == 330
    assert family["points"] == [[330, 12], [1320, 24], [5280, 48]]
    assert family["exponent"] == pytest.approx(0.5, abs=1e-12)
    assert family["residual"] <= 1e-20


def test_fit_strong_selects_fixed_problem_size(tmp_path, capsys):
    rows = [("liquid_species", 1, p, 4000, its) for p, its in [(2, 10), (4, 12), (8, 14)]]
    rows += [("liquid_species", 0, 3, 1000, 9),  # one P at this scale: no family
             ("solid_voltage", 1, 16, 4000, 40)]  # another system, ignored
    path = write_records(tmp_path, rows)
    assert main(["fit", "--records", path, "--system", "liquid_species"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["weak"] == []
    assert [(f["refinement"], f["points"]) for f in result["strong"]] == [
        (1, [[2, 10], [4, 12], [8, 14]])]


def test_fit_missing_file_is_config_error(tmp_path):
    assert main(["fit", "--records", str(tmp_path / "nope.json")]) == 2


def test_fit_without_a_two_point_series_is_config_error(tmp_path, capsys):
    # one P per refinement and a new dofs/P at each: nothing to fit
    path = write_records(tmp_path, [("liquid_species", r, 4, 1000 * 4**r, 10)
                                    for r in range(3)])
    assert main(["fit", "--records", path, "--system", "liquid_species"]) == 2
    err = capsys.readouterr().err
    assert "two or more points" in err
    assert "two or more subdomains (a strong series)" in err
    assert "P growing with the refinement" in err and "(a weak series)" in err


def test_suite_then_fit_reports_the_suite_iterations(tmp_path, capsys):
    cfg = write_config(tmp_path, systems=["liquid_species"], refinements=[0, 1],
                       subdomains=[1, 4])
    out = tmp_path / "suite"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
    its = {(r["refinement"], r["p"]): r["iterations"]
           for r in json.loads((out / "records.json").read_text())}
    capsys.readouterr()
    assert main(["fit", "--records", str(out / "records.json"),
                 "--system", "liquid_species"]) == 0
    result = json.loads(capsys.readouterr().out)
    # 140 dofs at r = 0 and 560 at r = 1
    assert [(f["dofs_per_subdomain"], f["points"]) for f in result["weak"]] == [
        (140, [[140, its[0, 1]], [560, its[1, 4]]])]
    assert [(f["refinement"], f["points"]) for f in result["strong"]] == [
        (r, [[1, its[r, 1]], [4, its[r, 4]]]) for r in (0, 1)]


def test_bad_config_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("suite_fields, message", [
    ({"systems": ["solid_voltage", "typo"]}, "typo"),
    ({"precon": {"inner_tool": 1}}, "inner_tool"),
    ({"precon": {"inner_mode": "bogus"}}, "inner mode"),
    ({"subdomains": [0]}, "subdomains"),
    ({"repetitions": 0}, "repetitions"),
    ({"refinements": [0, -1]}, "refinements"),
    ({"theta": 0.04}, "theta"),
    ({"precon": {"seed": 1}}, "set the suite's 'seed'"),
    ({"precon": {"ras_subdomains": 2}}, "set the suite's 'subdomains'"),
    ({"precon": {"inner_tol": "abc"}}, "inner_tol"),
    ({"precon": {"inner_tol": 2.0}}, "inner_tol: want a finite real > 0 and < 1, got 2.0"),
    ({"case": {"nr": 0}}, "nr: want an integer >= 1"),
    ({"case": {"refinement": -1}}, "refinement: want an integer >= 0"),
    ({"precon": {"ras_overlap": -1}}, "ras_overlap: want an integer >= 0"),
    ({"precon": {"ras_overlap": 1.5}}, "ras_overlap: want an integer >= 0"),
    ({"precon": {"voltage_smoother_degree": 0}}, "smoother_degree: want an integer >= 1"),
    ({"precon": {"pressure_smoother_degree": 2.5}},
     "pressure_smoother_degree: want an integer >= 1 and <= 8, got 2.5"),
    ({"precon": {"drop_tolerances": {"phi_s": -1}}},
     "drop_tolerances['phi_s']: want a finite real >= 0, got -1"),
    ({"precon": {"drop_tolerances": {"q": 0.1}}}, "unknown fields ['q']"),
    ({"precon": {"max_coarse_size": 0}}, "max_coarse_size: want an integer >= 1, got 0"),
    ({"systems": ["liquid_pressure", "liquid_species"], "subdomains": [256]},
     "P = 256 exceeds the 28 cells at refinement 0"),
    ({"precon": {"inner_restart": 2.5}}, "restart: want an integer >= 1"),
    ({"precon": {"inner_maxiter": 2.5}}, "maxiter: want an integer >= 1"),
    ({"precon": {"max_coarse_size": 10.5}}, "max_coarse_size: want an integer >= 1, got 10.5"),
    ({"seed": 0.5}, "seed: want an integer >= 0, got 0.5"),
    ({"case": {"dt": 0}}, "dt: want a finite real > 0, got 0"),
    ({"case": {"temperature": float("nan")}}, "temperature: want a finite real > 0, got nan"),
    ({"precon": {"drop_tolerance": float("nan")}},
     "drop_tolerance: want a finite real >= 0, got nan"),
    ({"repetitions": True}, "repetitions: want an integer >= 1, got True"),
    ({"case": {"nr": True}}, "nr: want an integer >= 1, got True"),
    ({"case": {"material_overrides": {"anode": {"sigmaa": 1.0}}}},
     "unexpected keyword argument 'sigmaa'"),
    ({"case": {"material_overrides": {"anodee": {"sigma": 1.0}}}},
     "material_overrides: want a material of heat_pellet, collector, anode, separator, "
     "cathode, insulation, can, got 'anodee'"),
    ({"case": {"material_overrides": {"anode": {"sigma": -1.0}}}},
     "sigma: want a finite real > 0, got -1.0"),
    ({"case": {"material_overrides": {"anode": 5}}},
     "material_overrides['anode']: want a mapping of Material fields, got 5"),
    ({"case": {"overpotential": 1000.0}},
     "overpotential 1000.0, temperature 800.0, valence 1.0, exchange_current 10.0 "
     "and symmetry_factor 0.5 make the Butler-Volmer slope inf"),
    # Horner's rule on the smoother's monomial coefficients drifts above 8
    ({"precon": {"voltage_smoother_degree": 9}},
     "voltage_smoother_degree: want an integer >= 1 and <= 8, got 9"),
])
def test_bad_suite_config_fails_before_any_solve(tmp_path, monkeypatch, capsys,
                                                 suite_fields, message):
    _assert_config_error(tmp_path, monkeypatch, capsys, suite_fields, message)


# former CaseConfig fields, now constants of blocksolve.battery or dropped factors of 1
REMOVED_CASE_FIELDS = ["melt_temperature", "melt_width", "species_sensitivity",
                       "species_feedback", "capillary_gradient", "advection_scale",
                       "molar_concentration", "viscosity", "melt_viscosity_factor",
                       "reference_mole_fraction", "liquid_voltage_mass_fraction",
                       "pressure_mass_fraction"]


@pytest.mark.parametrize("name", REMOVED_CASE_FIELDS)
def test_removed_case_field_fails_before_any_solve(tmp_path, monkeypatch, capsys, name):
    _assert_config_error(tmp_path, monkeypatch, capsys, {"case": {name: 1.0}},
                         f"unexpected keyword argument '{name}'")


def _assert_config_error(tmp_path, monkeypatch, capsys, suite_fields, message):
    import blocksolve.bench as bench

    def never(*args, **kwargs):
        raise AssertionError("a solve ran before the config was checked")

    monkeypatch.setattr(bench, "run_experiment", never)
    cfg = write_config(tmp_path, **suite_fields)
    out = tmp_path / "s"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert message in captured.err
    assert "[ok]" not in captured.out
    assert not (out / "records.csv").exists()


def test_suite_reps_override_is_checked(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["suite", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--reps", "0"]) == 2
    assert "repetitions" in capsys.readouterr().err


def test_generate_takes_no_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(tmp_path), "--seed", "0"])
    assert exc.value.code == 2


def test_suite_takes_no_format(tmp_path):
    # the suite always writes records.csv, records.json and table.md
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--out", str(tmp_path), "--format", "csv"])
    assert exc.value.code == 2


def test_report_is_gone(tmp_path):
    # the suite writes records.csv, records.json and table.md itself
    with pytest.raises(SystemExit) as exc:
        main(["report", "--records", str(tmp_path / "records.json"),
              "--format", "csv", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("blocksolve ")]
    parser = build_parser()
    assert {shlex.split(line)[1] for line in lines} == {
        "generate", "solve", "suite", "fit"}
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
