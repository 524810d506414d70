"""Tests of the benchmark itself: seeded inputs, exact tracer counts, and
that tracing leaves no patched binding behind."""

import json
import sys

import numpy as np
import pytest

import run
import tracer as tr
import workloads as wl

cli = wl.import_cli()

import conesurf as cs  # noqa: E402  (imported from the checkout by import_cli)


def binding_snapshot():
    """id of every attribute of every conesurf module and of every class
    defined in the package."""
    snap = {}
    for mod in tr.package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith(tr.PACKAGE):
                for cattr, cvalue in vars(value).items():
                    snap[(value.__qualname__, cattr)] = id(cvalue)
    return snap


def probed_originals():
    out = []
    for _, module, cls, attr, _, _ in tr.PROBES:
        owner = sys.modules[module]
        if cls is not None:
            owner = vars(owner)[cls]
        out.append(vars(owner)[attr])
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = wl.make_config(workload, wl.DEFAULT_SEED)
    assert json.dumps(a) == json.dumps(wl.make_config(workload, wl.DEFAULT_SEED))
    assert a != wl.make_config(workload, wl.HELDOUT_SEED)


def test_tracer_patches_every_binding_counts_exactly_and_restores():
    before = binding_snapshot()
    originals = probed_originals()
    # solve and build_disk_mesh are reached through several modules
    assert len(tr.bindings(cs.solver.solve)) >= 3
    assert len(tr.bindings(cs.mesh.build_disk_mesh)) >= 3

    tracer = tr.Tracer()
    tracer.install()
    try:
        for fn in originals:
            assert tr.bindings(fn) == []
        field = cs.CurvatureField("radial", c=0.05)
        for _ in range(7):
            field.eval(np.array([0.1, 0.2, 1.0]))
        assert tracer.stats["fields.eval"][0] == 7

        beta = np.pi / 3
        boundary = cs.SphericalBoundary.perturbed_cap(0.8 * beta)
        curve = cs.build_curve(boundary, cs.FourierScalar(1.0, [0.1]), beta)
        mesh = cs.build_disk_mesh(4, 8)
        state = cs.solve(mesh, curve, field)
        assert tracer.counters["solver.iterations"] == state.iterations > 0
        assert tracer.stats["mesh.build"][0] == 1

        cs.energy_F(state, field)
        assert tracer.stats["fields.potential"][0] == len(mesh.triangles)

        cs.AxisMap(boundary, beta, n_boundary=16, n_domain=64)
        assert tracer.stats["boundary.axis_at"][0] == 16

        # a typed failure still yields its iteration count
        with pytest.raises(cs.errors.NoConvergence):
            cs.solve(mesh, curve, field, cs.SolveConfig(max_iters=2))
        assert tracer.counters["solver.iterations"] == state.iterations + 8
        assert tracer._stack == []
        assert [s[0] for s in tracer.spans].count("solver.solve") == 2
    finally:
        tracer.uninstall()
    assert binding_snapshot() == before
    assert not any(tr.is_wrapped(fn) for fn in probed_originals())


def test_untraced_operation_leaves_conesurf_unpatched(tmp_path):
    before = binding_snapshot()
    config = wl.flat_config(0.5, 8, 16)
    outcome = wl.run_operation(cli, "flat_verify", config, tmp_path)
    assert outcome.ok, outcome.problems
    assert binding_snapshot() == before


def test_traced_operation_restores_bindings(tmp_path):
    before = binding_snapshot()
    config = wl.flat_config(0.5, 8, 16)
    r = run.Run(cli, "flat_verify", config, None, tmp_path)
    record = r.operation("timed", traced=True)
    assert record["problems"] == []
    assert record["layers"]["mesh.build_calls"] == 2
    assert record["layers"]["verifier.radial_graph_calls"] == 2
    assert binding_snapshot() == before


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
