"""Self-tests of the benchmark: generator, checker, tail rule and tracer."""

import contextlib
import io
import itertools
from collections import Counter

import pytest

from mrlab.cli import main
from perfbench.checker import MAX_FLOATS, compare, digest
from perfbench.run import tail
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import MEMORY_BUDGET, WORKLOADS, deals, pool, stream


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_and_stays_in_the_pool(name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(stream(workload, 11), 3 * workload.cycle))
    again = list(itertools.islice(stream(workload, 11), 3 * workload.cycle))
    other = list(itertools.islice(stream(workload, 12), 3 * workload.cycle))
    assert first == again
    assert first != other
    members = set(pool(workload))
    assert all(argv in members for _, argv in first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_visits_each_size_level_once(name):
    workload = WORKLOADS[name]
    dealt = list(itertools.islice(deals(workload, 5), 2 * workload.cycle))
    for start in (0, workload.cycle):
        cycle = dealt[start:start + workload.cycle]
        for kind in workload.kinds:
            sizes = [size for k, size, _ in cycle if k is kind]
            assert Counter(sizes) == Counter(kind.sizes)


def test_every_call_stays_under_the_memory_budget():
    for workload in WORKLOADS.values():
        for kind in workload.kinds:
            for size in kind.sizes:
                for variant in kind.variants:
                    assert kind.largest_array(size, variant) <= MEMORY_BUDGET


def _csv(values, exit_text="true"):
    rows = "".join(f"{i},{v!r},{exit_text}\n" for i, v in enumerate(values))
    return "# mrlab 0.1.0\n# worst 0.5\nm,value,ok\n" + rows


@pytest.mark.parametrize("count", [5, 10 * MAX_FLOATS])
def test_checker_flags_a_perturbed_number(count):
    values = [1.0 + 0.37 * i for i in range(count)]
    ref = digest(0, _csv(values))
    assert compare(ref, 0, _csv(values)) is None
    close = values.copy()
    close[count // 2] *= 1.0 + 1e-12
    assert compare(ref, 0, _csv(close)) is None
    far = values.copy()
    far[count // 2] *= 1.0 + 1e-6
    assert compare(ref, 0, _csv(far)) is not None
    swapped = values.copy()
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert compare(ref, 0, _csv(swapped)) is not None


def test_checker_flags_text_and_exit_code_changes():
    values = [0.25, 1.0, 3.5]
    ref = digest(0, _csv(values))
    assert compare(ref, 2, _csv(values)) is not None
    assert compare(ref, 0, _csv(values, exit_text="false")) is not None
    assert compare(ref, 0, _csv(values).replace("# worst 0.5", "# worst 0.6")) is not None


def test_checker_reads_json_reports():
    text = '{"a": 1.5, "b": [2, "x", 0.1]}\n'
    ref = digest(0, text)
    assert compare(ref, 0, '{"a": 1.5000000000001, "b": [2, "x", 0.1]}') is None
    assert compare(ref, 0, '{"a": 1.5, "b": [3, "x", 0.1]}') is not None


@pytest.mark.parametrize("n, pct", [(11, 100 * 1 / 11), (100, 90.0), (200, 95.0),
                                    (1000, 99.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    value, got = tail(samples)
    assert got == pytest.approx(pct)
    assert sum(s > value for s in samples) == 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _traced(argvs):
    tracer = Tracer()
    traced_main = tracer.root(main)
    outputs = []
    with tracer:
        for i, argv in enumerate(argvs):
            tracer.call = i
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                assert traced_main(argv) == 0
            tracer.output_bytes(len(buf.getvalue()))
            outputs.append(buf.getvalue())
    return layer_metrics(tracer), outputs


def test_bypassed_layers_read_zero_calls():
    series, _ = _traced([["rbound-blowup", "--blocks", "7,40"], ["diag-norm", "--blocks", "20"]])
    assert series["rademacher.blowup.blocks"] == 40
    assert series["certify.calls"] > 0
    assert series["multiplier.positivity.grid_points"] == 0
    assert series["rademacher.rad_norm.calls"] == 0
    scan, _ = _traced([["semigroup-check", "--n", "60"], ["pi-table", "--n", "40"]])
    assert scan["multiplier.positivity.grid_points"] > 0
    assert scan["twistbasis.permutation.builds"] == 2
    assert scan["rademacher.blowup.blocks"] == 0
    assert scan["rademacher.rad_norm.calls"] == 0
    signs, _ = _traced([["rad-norm", "--k", "6", "--blocks", "4", "--samples", "500"]])
    assert signs["rademacher.rad_norm.calls"] == 2
    assert signs["rademacher.rad_norm.patterns"] == 2 ** 6 + 500
    assert signs["multiplier.positivity.grid_points"] == 0
    assert signs["rademacher.blowup.blocks"] == 0
    assert signs["cli.output_bytes"] > 0


def test_tracing_leaves_outputs_and_functions_unchanged():
    import mrlab.cli
    import mrlab.multiplier

    before = (mrlab.cli.positivity_check, mrlab.multiplier.TwistedMultiplier.resolvent)
    argvs = [["sector-probe", "--n", "30", "--radii", "1,10"], ["bip-check", "--pairs", "200"]]
    _, traced = _traced(argvs)
    plain = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            main(argv)
        plain.append(buf.getvalue())
    assert traced == plain
    assert (mrlab.cli.positivity_check, mrlab.multiplier.TwistedMultiplier.resolvent) == before
