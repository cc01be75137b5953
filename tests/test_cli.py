import json

import numpy as np
import pytest

from blocksolve.battery import CaseConfig, build_case
from blocksolve.cli import main
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
    assert payload["converged"] is True
    assert payload["iterations"] >= 1
    saved = json.loads((tmp_path / "res" / "solve_solid_voltage_r0.json").read_text())
    assert saved == payload


def test_solve_reports_measured_setup_seconds(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--system", "end_to_end"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["setup_seconds"] > 0


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
                                    final_relative_residual=0.5)

    monkeypatch.setattr(bench, "run_experiment", fake)
    cfg = write_config(tmp_path)
    assert main(["suite", "--config", cfg, "--out", str(tmp_path / "s")]) == 1


def test_fit_command_weak(tmp_path, capsys):
    from blocksolve.bench import weak_model_times
    sizes = [1000, 2000, 4000]
    times = weak_model_times(1.0, 1000, sizes, 0.93)
    # fixed dofs-per-subdomain: P doubles with the problem size
    records = [
        {"case_id": "c", "refinement": k, "system": "end_to_end",
         "solver": "hierarchical-bgs", "p": 2**k, "repetitions": 1,
         "iterations": 1, "converged": True, "final_relative_residual": 1e-8,
         "mean_setup_seconds": t / 2, "std_setup_seconds": 0.0,
         "mean_solve_seconds": t / 2, "std_solve_seconds": 0.0, "dofs": n}
        for k, (n, t) in enumerate(zip(sizes, times))
    ]
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    assert main(["fit", "--records", str(path), "--model", "weak",
                 "--system", "end_to_end"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["efficiency"] == pytest.approx(0.93, abs=1e-6)


def test_fit_strong_selects_fixed_problem_size(tmp_path, capsys):
    from blocksolve.bench import strong_model_times

    def row(refinement, p, t, dofs):
        return {"case_id": "c", "refinement": refinement, "system": "liquid_species",
                "solver": "dd0-ilu0", "p": p, "repetitions": 1, "iterations": 10,
                "converged": True, "final_relative_residual": 1e-9,
                "mean_setup_seconds": t / 2, "std_setup_seconds": 0.0,
                "mean_solve_seconds": t / 2, "std_solve_seconds": 0.0, "dofs": dofs}

    procs = [2, 4, 8]
    times = strong_model_times(1.0, 2, procs, 0.8)
    records = [row(1, p, t, 4000) for p, t in zip(procs, times)]
    records += [row(0, p, 0.123, 1000) for p in procs]  # another scale, ignored
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    assert main(["fit", "--records", str(path), "--model", "strong",
                 "--system", "liquid_species"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["efficiency"] == pytest.approx(0.8, abs=1e-6)
    assert all(n_or_p in procs for n_or_p, _ in result["points_used"])


def test_fit_missing_file_is_config_error(tmp_path):
    assert main(["fit", "--records", str(tmp_path / "nope.json"),
                 "--model", "weak"]) == 2


def test_report_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "suite"
    main(["suite", "--config", cfg, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--records", str(out / "records.json"),
                 "--format", "csv", "--out", str(tmp_path / "rep")]) == 0
    text = (tmp_path / "rep" / "report.csv").read_text()
    assert text == (out / "records.csv").read_text()


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
    ({"precon": {"inner_tol": 2.0}}, "relative tolerance"),
    ({"case": {"nr": 0}}, "nr: want an integer >= 1"),
    ({"case": {"refinement": -1}}, "refinement: want an integer >= 0"),
])
def test_bad_suite_config_fails_before_any_solve(tmp_path, monkeypatch, capsys,
                                                 suite_fields, message):
    import blocksolve.bench as bench

    def never(*args, **kwargs):
        raise AssertionError("a solve ran before the config was checked")

    monkeypatch.setattr(bench, "run_experiment", never)
    cfg = write_config(tmp_path, **suite_fields)
    out = tmp_path / "s"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err
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
