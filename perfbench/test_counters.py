"""Counter-drift test for the benchmark's tracing (one e2e_small operation).

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OP = 1


def traced_op(wl):
    tracer = tracing.Tracer()
    tracer.matrix_labels = wl.matrix_labels()
    tracer.op = OP
    with tracer.attach():
        res = wl.run(OP, probe.Stopwatch(probing=False))
    calls = {name: t[2] for name, t in tracing.layer_totals(tracer.spans, {OP}).items()}
    return res, calls, tracer.events


def test_counts_repeat_and_tracing_changes_no_result():
    wl = workloads.make("e2e_small", 0, None)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, *_ in tracing.call_sites()]

    plain = wl.run(OP, probe.Stopwatch(probing=False))
    first, calls_1, events_1 = traced_op(wl)
    second, calls_2, events_2 = traced_op(wl)

    assert plain.failure is None and first.failure is None
    assert calls_1 == calls_2 and events_1 == events_2
    assert calls_1["smoothers.ilu0_apply"] > 0 and calls_1["amg.vcycle"] > 0
    for res in (first, second):
        assert res.solution.tobytes() == plain.solution.tobytes()
        assert res.facts == plain.facts
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_stopwatch_scales_segments_by_the_probes_around_them():
    watch = probe.Stopwatch(probing=True)
    watch.start()
    sum(range(100_000))
    watch.lap("setup")
    watch.lap(None)
    assert len(watch.probes) == 3 and set(watch.wall) == set(watch.ref) == {"setup"}
    speed = probe.REFERENCE_S / (0.5 * (watch.probes[0] + watch.probes[1]))
    assert watch.ref["setup"] == watch.wall["setup"] * speed
