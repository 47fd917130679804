"""The benchmark's own tests: python3 -m pytest perfbench/tests -q"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Two expand inputs of the default seed, written to disk."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "inputs").mkdir()
    inputs = [inp for inp in workloads.block("expand", run.DEFAULT_SEED, 0)
              if inp.manifest["edges"] == 8][:2]
    for inp in inputs:
        (d / "inputs" / inp.file).write_text(inp.text)
    return d, inputs


@pytest.fixture(scope="module")
def traced(tiny):
    """One traced worker run over the tiny inputs."""
    d, inputs = tiny
    job = {"inputs": [], "blocks": run.argv_blocks(d, [inputs]),
           "trace_dir": str(d / "spans")}
    result = run.run_worker(d, "traced", job)
    return d, inputs, result


def test_corrupted_reference_counts_as_failure(tiny):
    d, inputs = tiny
    run_cli = run.cli_runner()
    results = []
    for inp in inputs:
        path = run.path_of(d, inp)
        rc, out = run_cli(inp.command(path))
        result = {"rc": rc, "stdout": out, "stderr": "", "raised": None}
        results.append(result)
        good = {inp.id: [checks.sha(inp.text), checks.sha(out)]}
        assert checks.check(inp, path, result, good, run_cli) is None
        assert checks.check(inp, path, result, None, run_cli) is None

        corrupt = {inp.id: [checks.sha(inp.text), checks.sha(out + " ")]}
        assert checks.check(inp, path, result, corrupt, run_cli) is not None
        stale = {inp.id: [checks.sha(inp.text + "\n"), checks.sha(out)]}
        assert checks.check(inp, path, result, stale, run_cli) is not None
        assert checks.check(inp, path, result, {}, run_cli) is not None

        wrong = dict(result, stdout="1 + " + out)
        assert checks.check(inp, path, wrong, None, run_cli) is not None
        failed = dict(result, rc=2)
        assert checks.check(inp, path, failed, good, run_cli) is not None

    corrupt_all = {inp.id: [checks.sha(inp.text), "0" * 16] for inp in inputs}
    assert len(run.check_all(d, inputs, results, corrupt_all, run_cli)) == len(inputs)
    assert run.check_all(d, inputs, results, None, run_cli) == []


def test_self_times_add_up_to_wall_time(traced):
    d, inputs, result = traced
    for command, res in enumerate(result["commands"]):
        assert res["rc"] == 0
        root, total = tracer.command_wall_and_self(d / "spans", command)
        wall = res["seconds"]
        assert total == pytest.approx(root, rel=1e-9)
        assert root <= wall
        assert wall - root <= 0.05 * wall + 0.002


def test_metric_names(traced):
    d, _, _ = traced
    emitted = set(tracer.layer_metrics(d / "spans")) | {"trace.overhead_ratio",
                                                         "fail_ratio"}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared |= {w["name"] for w in spec["workloads"]}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in declared | emitted:
        assert NAME.fullmatch(name), name


def test_scaling_divides_out_host_speed():
    ref = calib.REFERENCE_S
    # A host at half speed runs the unit and the command both twice as slow.
    assert calib.scaled([0.2, 0.4], [2 * ref, 2 * ref, 2 * ref]) == pytest.approx([0.1, 0.2])
    # The speed around a command is the mean of the units on either side.
    assert calib.scaled([0.3], [ref, 2 * ref]) == pytest.approx([0.2])
    with pytest.raises(ValueError):
        calib.scaled([0.1, 0.1], [ref, ref])


def test_second_route_polynomial_reader():
    terms = checks.parse_poly("-2 + x^(3/2)y - 3a^2b + z")
    assert checks.evaluate(terms, {"y": 1, "a": 1, "b": 2, "z": 5}, {"x": 4}) == 61
    assert checks.spanning_trees(3, [(0, 1), (1, 2), (2, 0), (0, 0)]) == 3


def test_generator_properties_agree_with_topopoly():
    """The manifest and the recursion leaf count, computed by the
    generator's own tracer, match topopoly on small inputs."""
    import random
    sys.path.insert(0, str(run.SRC))
    from topopoly import embedding, fileformat, poly, ribbon

    rng = random.Random(3)
    for trial in range(40):
        g = gen.random_graph(rng, rng.randint(1, 5), rng.randint(4, 8),
                             signed=trial % 2 == 0, pinch=trial % 3 == 0)
        f = gen.boundary_circles(g)
        closure = (gen.cellular() if trial % 4 == 0
                   else gen.coarse_regions(rng, f, 1 + trial % 2))
        m = gen.manifest(g, closure)
        parsed = fileformat.parse(gen.to_text(g, closure))
        report = embedding.validate(parsed.embedded)
        assert (m["circles"], m["euler_genus"], m["cellular"], m["orientable"],
                m["pinched"], m["ribbon_genus"], m["regions"]) == (
            f, report.euler_genus, report.cellular,
            ribbon.is_orientable(parsed.rotation),
            bool(parsed.rotation.pinch_vertices()),
            ribbon.euler_genus(parsed.rotation), len(parsed.embedded.region_genus))
        if m["regions"] <= 2:
            l_poly = poly.las_vergnas_embedded(parsed.embedded, "recursion")
            assert gen.recursion_leaves(g, closure) == sum(l_poly.terms().values())
