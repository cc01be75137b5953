import dataclasses
from fractions import Fraction

import pytest

import blocksolve.bench as bench
from blocksolve.amg import AmgParams
from blocksolve.battery import CaseConfig, build_case
from blocksolve.blockprec import ElectrochemOptions
from blocksolve.krylov import SolverConfig
from blocksolve.bench import (
    SYSTEMS,
    ExperimentRecord,
    SuiteConfig,
    fit_exponent,
    load_records_json,
    records_to_csv,
    records_to_json,
    records_to_markdown,
    run_experiment,
    run_suite,
    scaling_series,
)


def make_record(**overrides):
    base = dict(case_id="c", refinement=0, system="end_to_end",
                solver="hierarchical-bgs", p=1, repetitions=2, iterations=2,
                converged=True, final_relative_residual=1e-7,
                mean_setup_seconds=0.5, std_setup_seconds=0.01,
                mean_solve_seconds=0.25, std_solve_seconds=0.02, dofs=330)
    base.update(overrides)
    return ExperimentRecord(**base)


# ---------------------------------------------------------------- scaling fits

@pytest.mark.parametrize("exponent", [0.0, 0.5, 1.0])
def test_fit_exponent_recovers_power_law(exponent):
    # flat, square-root and linear growth
    xs = [1000 * 4**k for k in range(4)]
    fitted, residual = fit_exponent([(x, 3.0 * x**exponent) for x in reversed(xs)])
    assert fitted == pytest.approx(exponent, abs=1e-12)
    assert residual <= 1e-20


@pytest.mark.parametrize("exponent", [0.3, 0.5, 0.74, 0.93, 1.0])
def test_weak_fit_roundtrip(exponent):
    # one family at 330 dofs per subdomain: P grows with the problem size
    records = [make_record(refinement=k, dofs=330 * 4**k, p=4**k,
                           iterations=12.0 * 4**(k * exponent)) for k in range(4)]
    weak, strong = scaling_series(records)
    assert list(weak) == [330] and strong == {}
    fitted, residual = fit_exponent(weak[330])
    assert fitted == pytest.approx(exponent, abs=1e-12)
    assert residual <= 1e-20


def test_weak_fit_rejects_single_point():
    # each dofs/P ratio occurs once: no weak family
    weak, _ = scaling_series([make_record(dofs=330, p=1),
                              make_record(refinement=1, dofs=1320, p=1)])
    assert weak == {}
    with pytest.raises(ValueError, match="at least two points"):
        fit_exponent([(330, 12)])


@pytest.mark.parametrize("exponent", [0.3, 0.5, 0.74, 1.0])
def test_strong_fit_roundtrip(exponent):
    # one problem size, P doubling
    records = [make_record(refinement=2, dofs=5280, p=p, iterations=20.0 * p**exponent)
               for p in (1, 2, 4, 8, 16)]
    weak, strong = scaling_series(records)
    assert weak == {} and list(strong) == [2]
    fitted, residual = fit_exponent(strong[2])
    assert fitted == pytest.approx(exponent, abs=1e-12)
    assert residual <= 1e-20


def test_strong_fit_rejects_single_point():
    # a second record at the same P is not a second point
    _, strong = scaling_series([make_record(p=4), make_record(p=4, case_id="d")])
    assert strong == {}
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_exponent([(4, 10), (16, 12), (4, 11)])


def series_records(*rows):
    return [make_record(refinement=r, dofs=dofs, p=p, iterations=its, converged=ok)
            for r, dofs, p, its, ok in rows]


def test_scaling_series_groups_by_exact_ratio_and_refinement():
    weak, strong = scaling_series(series_records(
        (0, 330, 1, 12, True), (1, 1320, 4, 17, True), (1, 1320, 16, 20, True),
        (2, 5280, 16, 40, True),
        (3, 1332, 4, 30, True)))  # dofs/P 333, within 1% of 330
    assert weak == {Fraction(330): [(330, 12), (1320, 17), (5280, 40)]}
    assert strong == {1: [(4, 17), (16, 20)]}


def test_scaling_series_leaves_out_unconverged_records():
    rows = [(1, 1320, 16, 20, True), (2, 5280, 16, 40, True)]
    capped = (2, 5280, 64, 500, False)  # would pair with each row above
    assert scaling_series(series_records(*rows, capped)) == ({}, {})
    weak, strong = scaling_series(series_records(*rows, capped[:-1] + (True,)))
    assert weak == {Fraction(165, 2): [(1320, 20), (5280, 500)]}
    assert strong == {2: [(16, 40), (64, 500)]}


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
                                        final_relative_residual=0.1), None
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


def test_suite_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(SuiteConfig)] == [
        "case", "refinements", "systems", "subdomains", "repetitions", "seed",
        "precon"]


INTEGER_OPTIONS = [
    (cls, f.name, f.default)
    for cls in (CaseConfig, AmgParams, SolverConfig, ElectrochemOptions)
    for f in dataclasses.fields(cls) if type(f.default) is int]


def test_integer_options_are_found():
    assert {(cls.__name__, name) for cls, name, _ in INTEGER_OPTIONS} >= {
        ("SolverConfig", "restart"), ("SolverConfig", "maxiter"),
        ("AmgParams", "max_coarse_size"), ("AmgParams", "seed"),
        ("ElectrochemOptions", "inner_restart"), ("CaseConfig", "nr")}


@pytest.mark.parametrize("cls, name, default", INTEGER_OPTIONS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in INTEGER_OPTIONS])
def test_integer_options_reject_a_fraction(cls, name, default):
    # a new integer option cannot skip its check
    with pytest.raises(ValueError):
        cls(**{name: default + 0.5})


def test_suite_config_builds_options_from_seed_and_precon():
    suite = SuiteConfig(seed=7, precon={"drop_tolerance": 0.1, "max_coarse_size": 32})
    assert suite.options == ElectrochemOptions(
        drop_tolerance=0.1, max_coarse_size=32, seed=7)
    assert SuiteConfig().options == ElectrochemOptions()


def test_systems_table_rows():
    block = SolverConfig(restart=30, tol=1e-8, maxiter=500)
    group = SolverConfig(restart=30, tol=1e-6, maxiter=300, flexible=True)
    outer = SolverConfig(restart=5, tol=1e-6, maxiter=25, flexible=True)
    every = ("phi_s", "phi_l", "s", "x", "p")
    rows = {name: (row.label, row.solver, row.fields, row.config)
            for name, row in SYSTEMS.items()}
    assert rows == {
        "liquid_species": ("Liquid-Phase Species", "dd0-ilu0", ("x",), block),
        "liquid_pressure": ("Liquid-Phase Pressure", "sa-amg", ("p",), block),
        "liquid_voltage": ("Liquid-Phase Voltage", "sa-amg", ("phi_l",), block),
        "solid_voltage": ("Solid-Phase Voltage", "sa-amg", ("phi_s",), block),
        "coupled_voltage": ("Coupled Voltages", "bgs", ("phi_s", "phi_l"), group),
        "nonvoltage": ("Non-Voltage System", "bgs", ("s", "x", "p"), group),
        "end_to_end": ("End-to-End Solve", "hierarchical-bgs", every, outer),
        "monolithic_ras": ("Monolithic DD(0)-ILU(0)", "dd0-ilu0", every, block),
    }
    assert list(rows) == list(TABLE_ITERATIONS[0])
    assert SuiteConfig().systems == list(rows)[:-1]


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
    case = build_case(CaseConfig(**{**dataclasses.asdict(suite.case),
                                    "refinement": refinement}))
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
