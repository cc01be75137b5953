import pytest

import blocksolve.bench as bench
from blocksolve.battery import CaseConfig, build_case
from blocksolve.bench import (
    ExperimentRecord,
    SuiteConfig,
    fit_strong_efficiency,
    fit_weak_efficiency,
    load_records_json,
    records_to_csv,
    records_to_json,
    records_to_markdown,
    run_experiment,
    run_suite,
    strong_model_times,
    weak_model_times,
)


def make_record(**overrides):
    base = dict(case_id="c", refinement=0, system="end_to_end",
                solver="hierarchical-bgs", p=1, repetitions=2, iterations=2,
                converged=True, final_relative_residual=1e-7,
                mean_setup_seconds=0.5, std_setup_seconds=0.01,
                mean_solve_seconds=0.25, std_solve_seconds=0.02, dofs=330)
    base.update(overrides)
    return ExperimentRecord(**base)


# ---------------------------------------------------------------- weak fit

def test_weak_fit_flat_times_is_perfect_efficiency():
    fit = fit_weak_efficiency([(1000, 2.0), (2000, 2.0), (4000, 2.0)])
    assert fit.efficiency == pytest.approx(1.0, abs=1e-12)


def test_weak_fit_time_doubles_per_size_doubling():
    # the worked case: efficiency one half
    sizes = [1000, 2000, 4000, 8000]
    times = [1.0, 2.0, 4.0, 8.0]
    fit = fit_weak_efficiency(list(zip(sizes, times)))
    assert fit.efficiency == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.74, 0.93, 1.0])
def test_weak_fit_roundtrip(eta):
    sizes = [8000 * 2**k for k in range(4)]
    times = weak_model_times(0.7, sizes[0], sizes, eta)
    fit = fit_weak_efficiency(list(zip(sizes, times)))
    assert fit.efficiency == pytest.approx(eta, abs=1e-6)
    assert fit.residual <= 1e-20
    assert fit.points == 4


def test_weak_fit_rejects_single_point():
    with pytest.raises(ValueError):
        fit_weak_efficiency([(100, 1.0)])


# ---------------------------------------------------------------- strong fit

def test_strong_fit_ideal_halving():
    points = [(1, 8.0), (2, 4.0), (4, 2.0), (8, 1.0)]
    fit = fit_strong_efficiency(points)
    assert fit.efficiency == pytest.approx(1.0, abs=1e-12)
    assert fit.strong_scale_limit_p is None


def test_strong_fit_quarter_reduction_per_doubling():
    # T_{2P} = 0.75 T_P; under T_{2P} = T_P/(2 eta) this is eta = 2/3
    points = [(1, 1.0), (2, 0.75), (4, 0.5625)]
    fit = fit_strong_efficiency(points)
    assert fit.efficiency == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.74, 1.0])
def test_strong_fit_roundtrip(eta):
    procs = [1, 2, 4, 8, 16]
    times = strong_model_times(4.0, procs[0], procs, eta)
    fit = fit_strong_efficiency(list(zip(procs, times)))
    assert fit.efficiency == pytest.approx(eta, abs=1e-6)
    # pairwise relation of the model: T_{2P} = T_P / (2 eta)
    for k in range(len(procs) - 1):
        assert times[k + 1] == pytest.approx(times[k] / (2 * eta), rel=1e-12)


def test_strong_fit_flags_scale_limit():
    # flat times: pairwise efficiency 0.5 exactly at every doubling; drop
    # below with slightly increasing times
    points = [(1, 1.0), (2, 1.01), (4, 1.02)]
    fit = fit_strong_efficiency(points)
    assert fit.strong_scale_limit_p == 2


def test_strong_fit_rejects_single_point():
    with pytest.raises(ValueError):
        fit_strong_efficiency([(4, 1.0)])


# ---------------------------------------------------------------- suite

def tiny_suite():
    return SuiteConfig(
        case=CaseConfig(nr=4, refinement=0, n_cells=1),
        refinements=[0],
        systems=["solid_voltage", "end_to_end"],
        subdomains=[2],
        repetitions=2,
    )


def test_run_suite_records_and_warmup(monkeypatch):
    calls = []
    real = bench.run_experiment

    def counting(case, system, suite, p=1):
        calls.append(system)
        return real(case, system, suite, p)

    monkeypatch.setattr(bench, "run_experiment", counting)
    suite = tiny_suite()
    records = run_suite(suite)
    assert len(records) == 2
    # warmup run plus `repetitions` measured runs per cell
    assert calls.count("solid_voltage") == suite.repetitions + 1
    for rec in records:
        assert rec.converged
        assert rec.repetitions == 2


def test_suite_iteration_counts_deterministic():
    suite = tiny_suite()
    a = run_suite(suite)
    b = run_suite(suite)
    assert [r.iterations for r in a] == [r.iterations for r in b]


def test_suite_records_failure_and_continues(monkeypatch):
    from blocksolve.krylov import SolveStats

    real = bench.run_experiment

    def failing(case, system, suite, p=1):
        if system == "monolithic_ras":
            return 0.0, 0.0, SolveStats(iterations=500, converged=False,
                                        final_relative_residual=0.1)
        return real(case, system, suite, p)

    monkeypatch.setattr(bench, "run_experiment", failing)
    suite = SuiteConfig(
        case=CaseConfig(nr=4, refinement=0, n_cells=1),
        refinements=[0],
        systems=["monolithic_ras", "solid_voltage"],
        subdomains=[4],
        repetitions=1,
    )
    records = run_suite(suite)
    assert len(records) == 2
    by_system = {r.system: r for r in records}
    assert not by_system["monolithic_ras"].converged
    assert by_system["solid_voltage"].converged


# iteration counts of the table under the default suite at P = 4;
# monolithic RAS stalls for its full 500 iterations from r = 1 on
TABLE_ITERATIONS = {
    0: {"liquid_species": 12, "liquid_pressure": 15, "liquid_voltage": 4,
        "solid_voltage": 19, "coupled_voltage": 8, "nonvoltage": 15,
        "end_to_end": 2, "monolithic_ras": 19},
    1: {"liquid_species": 17, "liquid_pressure": 18, "liquid_voltage": 12,
        "solid_voltage": 22, "coupled_voltage": 11, "nonvoltage": 17,
        "end_to_end": 2},
}


@pytest.mark.parametrize("refinement", sorted(TABLE_ITERATIONS))
def test_run_experiment_pins_table_iterations(refinement):
    suite = SuiteConfig()
    case = build_case(CaseConfig(**{**suite.case.to_dict(), "refinement": refinement}))
    stats = {system: run_experiment(case, system, suite, p=4)[2]
             for system in TABLE_ITERATIONS[refinement]}
    assert {s: st.iterations for s, st in stats.items()} == TABLE_ITERATIONS[refinement]
    assert all(st.converged for st in stats.values())


# ---------------------------------------------------------------- reporting

def test_csv_single_record():
    text = records_to_csv([make_record()])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("case_id,refinement,system")


def test_json_roundtrip():
    records = [make_record(), make_record(system="solid_voltage", iterations=19)]
    text = records_to_json(records)
    loaded = load_records_json(text)
    assert loaded == records


def test_emissions_byte_stable():
    records = [make_record(), make_record(refinement=1, iterations=3)]
    assert records_to_csv(records) == records_to_csv(records)
    assert records_to_json(records) == records_to_json(records)
    assert records_to_markdown(records) == records_to_markdown(records)


def test_markdown_mirrors_table_layout():
    records = [
        make_record(system="liquid_species", solver="dd0-ilu0", p=2, iterations=14),
        make_record(system="liquid_species", solver="dd0-ilu0", p=8, iterations=20),
        make_record(system="end_to_end", iterations=1),
        make_record(system="end_to_end", refinement=1, iterations=1),
    ]
    table = records_to_markdown(records)
    assert "| Subblock | r=0 | r=1 |" in table
    assert "End-to-End Solve" in table
    # species row reports the largest-P (strong-scaling limit) count
    assert "| Liquid-Phase Species | 20 | - |" in table


def test_empty_emission_rejected():
    with pytest.raises(ValueError, match="no records"):
        records_to_csv([])
    with pytest.raises(ValueError, match="no records"):
        records_to_markdown([])
