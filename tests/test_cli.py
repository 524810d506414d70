import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conesurf import boundary, cli, cone_smoothing, io, solver
from conesurf.mesh import build_disk_mesh
from conesurf.verifier import domain_grid

BETA = np.pi / 3


def solve_config(**overrides):
    cfg = {
        "cone": {"beta": BETA},
        "boundary": {"type": "perturbed_cap", "alpha_c": 0.8 * BETA},
        "field": {"family": "radial", "c": 0.9 / 6.0},
        "mesh": {"n_r": 12, "n_theta": 24},
        "solver": {"max_iters": 400},
        "verify": {"grid_size": 128, "n_boundary": 64, "n_domain": 512},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    io.write_json(path, cfg)
    return str(path)


class TestSolveAndVerify:
    def test_solve_writes_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        rc = cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "surface.obj").exists()
        log = json.loads((tmp_path / "solve.json").read_text())
        assert log["schema"] == 1
        assert log["residual"] < 1e-7
        assert log["energy_F"] >= log["energy_G"] - 1e-10
        # one record per continuation level, summing to the whole count
        assert len(log["level_iterations"]) == 4
        assert sum(log["level_iterations"]) == log["iterations"]
        assert log["iterations"] == len(log["iteration_log"])
        assert "level_damping" not in log
        # a contraction estimate per level, each below 1 for this field
        assert len(log["level_contraction"]) == 4
        assert all(0.0 < q < 1.0 for q in log["level_contraction"])

    def test_solve_integrates_Q_once(self, tmp_path, monkeypatch):
        # energy_F and energy_G share one Q quadrature: one potential call
        # per triangle for the whole solve
        calls = []
        counted = solver.build_potential_Q

        def counting(field, p):
            calls.append(1)
            return counted(field, p)

        monkeypatch.setattr(solver, "build_potential_Q", counting)
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert len(calls) == len(build_disk_mesh(12, 24).triangles)

    def test_obj_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        X, tris = io.read_obj(tmp_path / "surface.obj")
        assert X.shape[1] == 3
        assert tris.shape[1] == 3
        assert np.min(tris) == 0

    def test_verify_passes_on_solved_surface(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert (tmp_path / "radial_graph.csv").exists()
        header = (tmp_path / "radial_graph.csv").read_text().splitlines()[0]
        assert header == "theta,phi,lambda"

    def test_radial_graph_csv_rows(self, tmp_path):
        # the same bytes as formatting each grid point's row on its own
        cfg = solve_config()
        cfg_path = write_config(tmp_path, cfg)
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "radial_graph.csv").read_text()
        lam = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
        grid = domain_grid(cli.parse_boundary(cfg)[0], cfg["verify"]["grid_size"])
        assert len(lam) == len(grid)
        out = tmp_path / "expected.csv"
        io.write_csv(out, ("theta", "phi", "lambda"), [
            (np.arctan2(p[1], p[0]), np.arccos(p[2]), l)
            for p, l in zip(grid, np.array(lam))
        ])
        assert text == out.read_text()

    def test_verify_mirrored_surface_fails(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        X, tris = io.read_obj(tmp_path / "surface.obj")
        io.write_obj(tmp_path / "surface.obj", X * np.array([1.0, -1.0, 1.0]), tris)
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 4
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False

    def test_verify_reports_radial_graph_failure(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        X, tris = io.read_obj(tmp_path / "surface.obj")
        # shrink toward the axis: directions near the domain edge are uncovered
        io.write_obj(tmp_path / "surface.obj", X * np.array([0.5, 0.5, 1.0]), tris)
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 4
        report = json.loads((tmp_path / "report.json").read_text())
        coverage = [c for c in report["checks"] if c["name"] == "radial_graph_coverage"]
        assert coverage[0]["pass"] is False
        assert "not covered" in capsys.readouterr().err
        assert not (tmp_path / "radial_graph.csv").exists()

    def test_solve_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(a)])
        cli.main(["solve", "--config", cfg_path, "--out", str(b)])
        assert (a / "solve.json").read_bytes() == (b / "solve.json").read_bytes()
        assert (a / "surface.obj").read_bytes() == (b / "surface.obj").read_bytes()

    @pytest.mark.parametrize("mesh", [(96, 192), (7, 21)])
    def test_flat_oracle_solves_to_the_plane(self, tmp_path, mesh):
        # zero field over the circle of radius 1 at height 2: the solution
        # is the flat disk (u, v, 2).  At (96, 192) the residual is 6.8e-9,
        # near the default residual_tol 1e-8 (9.3e-9 with a sparse LU,
        # 1.4e-8 without the refinement step of the harmonic part).
        cfg = solve_config(
            boundary={"type": "cap", "alpha_c": float(np.arctan2(1.0, 2.0)),
                      "g": {"const": float(np.sqrt(5.0))}},
            field={"family": "zero"},
            mesh={"n_r": mesh[0], "n_theta": mesh[1]},
        )
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "solve.json").read_text())["residual"] <= 1e-8
        X, _ = io.read_obj(tmp_path / "surface.obj")
        uv = build_disk_mesh(*mesh).vertices
        assert np.max(np.abs(X - np.column_stack([uv, np.full(len(uv), 2.0)]))) < 1e-8

    def test_verify_is_deterministic(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        reports = []
        for _ in range(2):
            assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_verify_reads_no_solve_log(self, tmp_path):
        # the boundary parameters and the mesh follow from the config
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("report.json", "radial_graph.csv")}
        (tmp_path / "solve.json").unlink()
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data

    @pytest.mark.parametrize("mesh", [{"n_r": 10, "n_theta": 24}, {"n_r": 24, "n_theta": 12}],
                             ids=["fewer_vertices", "same_vertex_count"])
    def test_verify_rejects_config_mesh_other_than_surface(self, tmp_path, capsys, mesh):
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        bad_path = write_config(tmp_path, solve_config(mesh=mesh), name="bad.json")
        assert cli.main(["verify", "--config", bad_path, "--out", str(tmp_path)]) == 2
        assert "mesh block" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_verify_rejects_faces_not_of_the_mesh(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        X, tris = io.read_obj(tmp_path / "surface.obj")
        io.write_obj(tmp_path / "surface.obj", X, tris[::-1])
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_verify_rejects_malformed_surface(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        text = (tmp_path / "surface.obj").read_text()
        (tmp_path / "surface.obj").write_text("v 1 2\n" + text)
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "short 'v' record" in capsys.readouterr().err

    def test_verify_rejects_non_finite_vertex(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        lines = (tmp_path / "surface.obj").read_text().splitlines(keepends=True)
        lines[5] = "v nan 0.1 1.0\n"
        (tmp_path / "surface.obj").write_text("".join(lines))
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "surface.obj:6: non-finite 'v' record" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("field", [{"family": "zero"}, {"family": "constant", "h0": 0.1},
                                       {"family": "radial", "c": 0.15}],
                             ids=["zero", "constant", "radial"])
    def test_verify_types_vertex_at_origin(self, tmp_path, capsys, field):
        # a vertex at the origin is OriginHit (exit 4) in every field, the
        # radial one included, whose H is not finite there
        cli.main(["solve", "--config", write_config(tmp_path, solve_config()),
                  "--out", str(tmp_path)])
        X, tris = io.read_obj(tmp_path / "surface.obj")
        X[0] = 0.0
        io.write_obj(tmp_path / "surface.obj", X, tris)
        cfg_path = write_config(tmp_path, solve_config(field=field))
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 4
        assert "verification failure: |X| reaches 0.000e+00" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_verify_types_overflowing_vertex(self, tmp_path, capsys, recwarn):
        # a finite vertex whose triangle derivatives overflow: typed
        # verification failure (exit 4) and no numpy warning
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        lines = (tmp_path / "surface.obj").read_text().splitlines(keepends=True)
        lines[5] = "v 1e308 1e308 1e308\n"
        (tmp_path / "surface.obj").write_text("".join(lines))
        assert cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "floating-point error while verifying the surface" in err
        assert "largest coordinate magnitude 1e+308" in err
        assert not recwarn.list
        assert not (tmp_path / "report.json").exists()


class TestCheckDomain:
    def test_pass(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        rc = cli.main(["check-domain", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "domain_report.json").read_text())
        assert rep["beta_convex"] and rep["convex"]
        assert rep["orientation_sign"] == -1

    def counted_axis_at(self, monkeypatch):
        """Patch boundary.axis_at to record the number of containment
        samples of each call."""
        seen = []
        original = boundary.axis_at

        def counting(b, beta, theta, samples):
            seen.append(len(samples))
            return original(b, beta, theta, samples)

        monkeypatch.setattr(boundary, "axis_at", counting)
        return seen

    def test_one_axis_map(self, tmp_path, monkeypatch):
        # beta-convexity and orientation share one axis per boundary sample
        seen = self.counted_axis_at(monkeypatch)
        cfg = solve_config()
        del cfg["verify"]
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["check-domain", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert len(seen) == 256

    def test_orientation_uses_configured_n_domain(self, tmp_path, monkeypatch):
        seen = self.counted_axis_at(monkeypatch)
        cfg = solve_config(verify={"n_boundary": 64, "n_domain": 300})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["check-domain", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        assert seen == [300 + 64] * 64
        rep = json.loads((tmp_path / "domain_report.json").read_text())
        assert rep["orientation_sign"] == -1 and rep["n_domain"] == 300

    def test_wide_cap_fails(self, tmp_path):
        cfg = solve_config(boundary={"type": "cap", "alpha_c": BETA + 0.1})
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["check-domain", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 4
        rep = json.loads((tmp_path / "domain_report.json").read_text())
        assert rep["pass"] is False
        assert rep["beta_convex"] is False


class TestProfileCone:
    def test_default_run(self, tmp_path):
        cfg = {"cone": {"beta": BETA}}
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["profile-cone", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "profile_report.json").read_text())
        assert rep["pass"] is True
        assert len(rep["profiles"]) == 3
        # halving eps roughly doubles the minimum cap curvature
        for r in rep["min_curvature_ratios"]:
            assert r == pytest.approx(2.0, rel=0.2)
        csv = (tmp_path / "profile.csv").read_text().splitlines()
        assert csv[0] == "eps,t,alpha1,alpha2,H_S"
        assert len(csv) == 1 + 3 * 128

    def test_with_field_enclosure(self, tmp_path):
        cfg = {
            "cone": {"beta": BETA},
            "field": {"family": "radial", "c": 0.05},
        }
        cfg_path = write_config(tmp_path, cfg)
        rc = cli.main(["profile-cone", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "profile_report.json").read_text())
        assert [r["eps"] for r in rep["profiles"]] == list(cli.EPS_LIST)
        assert all("enclosure" in r for r in rep["profiles"])

    @pytest.mark.parametrize("key,value", [
        ("eps_list", ["abc"]), ("eps_list", 5), ("eps_list", [-0.1]), ("eps_list", [0.1, 0.0]),
        ("eps_list", []), ("eps_list", [True]), ("delta", "x"), ("delta", 1.0),
        ("delta", -BETA),
    ])
    def test_mistyped_cone_key_rejected(self, tmp_path, capsys, key, value):
        # delta and the cap widths are constants now, so any value of either
        # key is rejected as an unknown key
        cfg_path = write_config(tmp_path, {"cone": {"beta": BETA, key: value}})
        assert cli.main(["profile-cone", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"unknown cone key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "profile_report.json").exists()
        assert not (tmp_path / "profile.csv").exists()

    @pytest.mark.parametrize("beta", [1e-12, 1.5707963])
    def test_beta_without_admissible_delta_is_config_error(self, tmp_path, capsys, beta):
        # the schema admits every beta in (0, pi/2), but near either end no
        # delta keeps beta +- delta in range: a bad cone block, not a
        # failed verification
        cfg_path = write_config(tmp_path, {"cone": {"beta": beta}})
        assert cli.main(["profile-cone", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "bad cone block" in err and f"beta={beta}" in err
        assert not (tmp_path / "profile_report.json").exists()
        assert not (tmp_path / "profile.csv").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_config_missing_cone_block(self, tmp_path):
        cfg_path = write_config(tmp_path, {"boundary": {"alpha_c": 0.5}})
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_bad_beta(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config(cone={"beta": 2.0}))
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_unknown_field_family(self, tmp_path):
        cfg = solve_config(field={"family": "spiral", "c": 0.1})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    def test_missing_out_dir(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        rc = cli.main(["solve", "--config", cfg_path,
                       "--out", str(tmp_path / "absent")])
        assert rc == 2

    def test_solver_failure(self, tmp_path, capsys):
        cfg = solve_config(solver={"max_iters": 1, "residual_tol": 1e-14})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 3
        # each of the four levels takes its one step; the last one's update
        # and the residual stay above their tolerances
        assert "no convergence after 4 iterations at continuation level 4" in (
            capsys.readouterr().err)
        assert not (tmp_path / "surface.obj").exists()

    def test_iterate_leaving_field_domain_is_solver_failure(self, tmp_path, capsys,
                                                            monkeypatch):
        calls = []
        assemble = solver._assemble_rhs

        def leaves_on_second_call(mesh, X, field):
            calls.append(1)
            if len(calls) == 2:
                raise solver.FieldOutOfDomain("iterate touches the origin")
            return assemble(mesh, X, field)

        monkeypatch.setattr(solver, "_assemble_rhs", leaves_on_second_call)
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: no convergence after 1 iterations" in err
        assert "residual inf" in err
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("key,value", [("reparam_enabled", True), ("reparam_sweeps", 7)],
                             ids=["reparam_enabled", "reparam_sweeps"])
    def test_unread_solver_key_rejected(self, tmp_path, key, value):
        cfg = solve_config(solver={"max_iters": 400, key: value})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key,value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", "3"),
        ("continuation_steps", 2.5), ("continuation_steps", True),
        ("continuation_steps", "3"),
        ("residual_tol", "1e-8"),
        ("update_tol", False), ("residual_tol", float("inf")), ("update_tol", float("inf")),
        ("max_iters", 0), ("max_iters", -1),
        ("continuation_steps", 101), ("continuation_steps", 1000000),
    ])
    def test_mistyped_solver_key_rejected(self, tmp_path, capsys, key, value):
        # the continuation count is the constant solver.CONTINUATION_LEVELS
        # now: any value of continuation_steps is rejected as an unknown key
        cfg = solve_config(solver={"max_iters": 400, key: value})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert ("unknown solver key" in err) == (key == "continuation_steps")
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("value", [0.5, 1.0, True])
    def test_removed_damping_key_rejected(self, tmp_path, capsys, value):
        # a stalled continuation level fails at once; no damping is tried
        cfg = solve_config(solver={"max_iters": 400, "damping": value})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "unknown solver key 'damping'" in capsys.readouterr().err
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("value", [4, 1, True])
    def test_removed_continuation_steps_key_rejected(self, tmp_path, capsys, value):
        # the solve always runs CONTINUATION_LEVELS levels; a count is
        # unknown, even at the constant's own value
        assert solver.CONTINUATION_LEVELS == 4
        cfg = solve_config(solver={"max_iters": 400, "continuation_steps": value})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "unknown solver key 'continuation_steps'" in capsys.readouterr().err
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("block,key,value", [
        ("cone", "delta", cone_smoothing.select_delta(BETA)),
        ("cone", "eps_list", [0.1, 0.05, 0.025]), ("verify", "n_axes", 16),
        ("verify", "n_probe", 8), ("verify", "branch_threshold", 1e-6),
        ("verify", "stability_tol", 1e-3),
    ], ids=["delta", "eps_list", "n_axes", "n_probe", "branch_threshold", "stability_tol"])
    def test_removed_key_rejected(self, tmp_path, capsys, block, key, value):
        # the profiles' delta and cap widths and the verifier's tolerances
        # and sample counts are constants: a key for one is unknown, even
        # at the value the constant has
        good_path = write_config(tmp_path, solve_config(), name="good.json")
        assert cli.main(["solve", "--config", good_path, "--out", str(tmp_path)]) == 0
        cfg = solve_config()
        cfg[block][key] = value
        bad_path = write_config(tmp_path, cfg, name="bad.json")
        commands = ("solve", "verify", "profile-cone") if block == "cone" else (
            "verify", "check-domain")
        for command in commands:
            assert cli.main([command, "--config", bad_path, "--out", str(tmp_path)]) == 2
            assert f"unknown {block} key '{key}'" in capsys.readouterr().err
        assert {p.name for p in tmp_path.iterdir()} == {
            "good.json", "bad.json", "surface.obj", "solve.json"}

    @pytest.mark.parametrize("content,named", [
        (None, "config.json"),
        (b'{"cone": {"beta": 1.0}, "field": {"family": "\xff"}}', "config.json"),
        (b'{"cone": {"beta": 1.0', "config.json"),
        (b'{"cone": {"beta": 1.0}, "cone": {"beta": 0.5}}', "duplicate key 'cone'"),
        (b'{"cone": {"beta": 1.0, "beta": 0.5}}', "duplicate key 'beta'"),
        (b'{"cone": {"beta": 1.0}, "boundary": {"alpha_c": 0.8, "g": {"const": 1, "const": 2}}}',
         "duplicate key 'const'"),
    ], ids=["directory", "not_utf8", "truncated", "duplicate_root_key", "duplicate_cone_key",
            "duplicate_g_key"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, content, named):
        cfg_path = tmp_path / "config.json"
        if content is None:
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(content)
        assert cli.main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("content", [None, b"v 0 0 1\n# \xff\nv 1 0 1\nf 1 2 3\n"],
                             ids=["directory", "not_utf8"])
    def test_unreadable_surface_is_config_error(self, tmp_path, capsys, content):
        cfg_path = write_config(tmp_path, solve_config())
        surface = tmp_path / "surface.obj"
        if content is None:
            surface.mkdir()
        else:
            surface.write_bytes(content)
        rc = cli.main(["verify", "--config", cfg_path, "--out", str(tmp_path),
                       "--surface", str(surface)])
        assert rc == 2
        assert "surface.obj" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mesh", [{"n_r": 2, "n_theta": 24}, {"n_r": 12, "n_theta": 4}],
                             ids=["n_r", "n_theta"])
    def test_mesh_below_minimum_is_config_error(self, tmp_path, capsys, mesh):
        cfg_path = write_config(tmp_path, solve_config(mesh=mesh))
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("mesh,key", [({"n_r": 12.7, "n_theta": 24}, "n_r"),
                                          ({"n_r": 12, "n_theta": "24"}, "n_theta"),
                                          ({"n_r": True, "n_theta": 24}, "n_r"),
                                          (12, "mesh")],
                             ids=["float", "string", "bool", "not_a_block"])
    def test_non_integer_mesh_size_rejected(self, tmp_path, capsys, mesh, key):
        cfg_path = write_config(tmp_path, solve_config(mesh=mesh))
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("key,value", [
        ("grid_size", "abc"), ("grid_size", 12.7), ("grid_size", True), ("grid_size", 0),
        ("n_boundary", -3), ("n_domain", 512.0), ("n_axes", None), ("n_probe", "8"),
        ("branch_threshold", "1e-6"), ("branch_threshold", False),
        ("stability_tol", float("nan")), ("stability_tol", [1e-3]),
        ("branch_threshold", 1.0), ("branch_threshold", 2.0), ("branch_threshold", -0.1),
    ])
    def test_mistyped_verify_key_rejected(self, tmp_path, capsys, key, value):
        # n_axes, n_probe, branch_threshold and stability_tol are constants
        # now: any value of one is rejected as an unknown key
        cfg_path = write_config(tmp_path, solve_config())
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        cfg = solve_config()
        cfg["verify"][key] = value
        bad_path = write_config(tmp_path, cfg, name="bad.json")
        assert cli.main(["verify", "--config", bad_path, "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key,value", [("n_boundary", 64.5), ("n_domain", "512"),
                                           ("n_boundary", 0)])
    def test_mistyped_check_domain_key_rejected(self, tmp_path, capsys, key, value):
        cfg = solve_config()
        cfg["verify"][key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["check-domain", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "domain_report.json").exists()

    def test_verify_keys_are_converted(self):
        opts = cli.read({"grid_size": 64}, "verify")
        assert opts == {"grid_size": 64, "n_boundary": 128, "n_domain": 1024}
        assert all(type(v) is int for v in opts.values())

    @pytest.mark.parametrize("command", ["solve", "verify", "check-domain", "profile-cone"])
    @pytest.mark.parametrize("block", ["verify", "output"])
    def test_non_object_block_rejected(self, tmp_path, capsys, command, block):
        if command == "verify":
            good_path = write_config(tmp_path, solve_config())
            assert cli.main(["solve", "--config", good_path, "--out", str(tmp_path)]) == 0
        bad_path = write_config(tmp_path, solve_config(**{block: 5}), name="bad.json")
        rc = cli.main([command, "--config", bad_path, "--out", str(tmp_path)])
        if command in ("solve", "profile-cone") and block == "verify":
            assert rc == 0  # neither command reads the verify block
        else:
            assert rc == 2
            assert f"'{block}'" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key,value,named", [
        ("cone", "beta", "x", "'beta'"), ("cone", "beta", [1], "'beta'"),
        ("cone", "beta", True, "'beta'"),
        ("boundary", "alpha_c", "x", "'alpha_c'"), ("boundary", "alpha_c", 1.6, "'alpha_c'"),
        ("boundary", "alpha_c", 0.0, "'alpha_c'"),
        ("boundary", "cos", ["a"], "'cos'"), ("boundary", "cos", 0.1, "'cos'"),
        ("boundary", "sin", [None], "'sin'"),
        ("boundary", "g", "x", "'g'"), ("boundary", "g", {"const": "x"}, "'const'"),
        ("boundary", "g", {"const": 1.0, "cos": "x"}, "'cos'"),
        ("boundary", "cos", [0.01] * 9, "Fourier order"),
        ("boundary", "cos", [0.9], "colatitude"),
        ("boundary", "type", "disk", "boundary type 'disk'"),
    ])
    def test_mistyped_cone_or_boundary_key_rejected(self, tmp_path, capsys, block, key,
                                                    value, named):
        cfg = solve_config()
        cfg[block][key] = value
        cfg_path = write_config(tmp_path, cfg)
        for command in ("solve", "check-domain"):
            assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
            assert named in capsys.readouterr().err
        assert not (tmp_path / "surface.obj").exists()
        assert not (tmp_path / "domain_report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_nonpositive_radial_factor_is_config_error(self, tmp_path, capsys, command):
        if command == "verify":
            good_path = write_config(tmp_path, solve_config())
            assert cli.main(["solve", "--config", good_path, "--out", str(tmp_path)]) == 0
            (tmp_path / "solve.json").unlink()
        cfg = solve_config()
        cfg["boundary"]["g"] = {"const": -1.0}
        bad_path = write_config(tmp_path, cfg, name="bad.json")
        assert cli.main([command, "--config", bad_path, "--out", str(tmp_path)]) == 2
        assert "bad boundary block: radial factor g" in capsys.readouterr().err
        written = {p.name for p in tmp_path.iterdir()} - {"config.json", "bad.json"}
        assert written == ({"surface.obj"} if command == "verify" else set())

    @pytest.mark.parametrize("commands,path,key", [
        (("solve", "verify", "profile-cone"), (), "meshes"),
        (("solve", "verify"), ("cone",), "bta"),
        (("profile-cone",), ("cone",), "Eps_list"),
        (("solve", "verify"), ("boundary",), "G"),
        (("solve", "verify", "check-domain"), ("boundary",), "cos"),
        (("solve", "verify"), ("boundary", "g"), "Cos"),
        (("solve", "verify"), ("mesh",), "n_rings"),
        (("verify", "check-domain"), ("verify",), "grid"),
        (("solve", "verify"), ("output",), "surface"),
    ], ids=["root", "cone", "cone_profile", "boundary", "cap_cos", "boundary_g", "mesh",
            "verify", "output"])
    def test_unknown_key_rejected(self, tmp_path, capsys, commands, path, key):
        good_path = write_config(tmp_path, solve_config(), name="good.json")
        assert cli.main(["solve", "--config", good_path, "--out", str(tmp_path)]) == 0
        cfg = solve_config(output={})
        cfg["boundary"]["g"] = {"const": 1.0}
        if key == "cos":  # cos and sin belong to a perturbed_cap only
            cfg["boundary"]["type"] = "cap"
        block = cfg
        for name in path:
            block = block[name]
        block[key] = [0.3]
        bad_path = write_config(tmp_path, cfg, name="bad.json")
        for cmd in commands:
            assert cli.main([cmd, "--config", bad_path, "--out", str(tmp_path)]) == 2
            assert f"key '{key}'" in capsys.readouterr().err
        assert {p.name for p in tmp_path.iterdir()} == {
            "good.json", "bad.json", "surface.obj", "solve.json"}

    @pytest.mark.parametrize("command", ["solve", "verify", "check-domain", "profile-cone"])
    @pytest.mark.parametrize("value", [5, "", None], ids=["int", "empty", "null"])
    def test_output_name_must_be_nonempty_string(self, tmp_path, capsys, command, value):
        cfg_path = write_config(tmp_path, solve_config(output={"report": value}))
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "'report'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("field,key", [
        ({"family": "radial"}, "'c'"),
        ({"family": "radial", "c": "abc"}, "'c'"),
        ({"family": "radial", "c": True}, "'c'"),
        ({"family": "radial", "c": float("nan")}, "'c'"),
        ({"family": "radial", "c": 0.1, "s": 0.5}, "'s'"),
        ({"family": "zero", "c": 0.1}, "'c'"),
        ({"family": "constant"}, "'h0'"),
        ({"family": "power", "c": 0.01, "s": 2.0}, "'s'"),
        ({"family": "power", "c": 0.01}, "'s'"),
        ({"family": "radial", "c": 10**400}, "'c'"),
        ({"family": "modulated", "c": 0.1, "a": [0.05]}, "'a'"),
        ({"family": ["radial"], "c": 0.1}, "family"),
        ({"c": 0.1}, "'family'"),
        ({"family": "radial", "c": 0.1, "self": 1}, "'self'"),
    ], ids=["radial_no_c", "c_string", "c_bool", "c_nan", "radial_s", "zero_c",
            "constant_no_h0", "power_s_2", "power_no_s", "c_huge_int", "a_list",
            "family_list", "no_family", "self_key"])
    def test_bad_field_parameter_rejected(self, tmp_path, capsys, field, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(solve_config(field=field)))
        for command in ("solve", "profile-cone"):
            assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
            assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["solve", "check-domain", "profile-cone"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, solve_config(cone={"beta": 10**400}))
        assert cli.main([command, "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "'beta'" in capsys.readouterr().err

    def test_curve_leaving_cone_is_verification_failure(self, tmp_path, capsys):
        # a hypothesis of the theory fails, not the config's form
        cfg = solve_config(boundary={"type": "cap", "alpha_c": BETA + 0.1})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 4
        assert "leaves the cone" in capsys.readouterr().err

    def test_verify_non_beta_convex_domain(self, tmp_path):
        cfg_path = write_config(tmp_path, solve_config())
        cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)])
        bad = solve_config(boundary={"type": "cap", "alpha_c": BETA + 0.1})
        bad_path = write_config(tmp_path, bad, name="bad.json")
        rc = cli.main(["verify", "--config", bad_path, "--out", str(tmp_path)])
        assert rc == 4


MINIMAL = {"cone": {"beta": BETA}, "boundary": {"alpha_c": 0.8 * BETA},
           "field": {"family": "radial", "c": 0.9 / 6.0}}
WRITES = {"solve": {"surface.obj", "solve.json"},
          "verify": {"surface.obj", "solve.json", "report.json", "radial_graph.csv"},
          "check-domain": {"domain_report.json"},
          "profile-cone": {"profile.csv", "profile_report.json"}}


def spelled_out(command):
    """MINIMAL with every optional key at the default `command` documents."""
    report = {"check-domain": "domain_report.json",
              "profile-cone": "profile_report.json"}.get(command, "report.json")
    n_boundary, n_domain = (256, 2048) if command == "check-domain" else (128, 1024)
    return {
        "cone": {"beta": BETA},
        "boundary": {"type": "cap", "alpha_c": 0.8 * BETA,
                     "g": {"const": 1.0, "cos": [], "sin": []}},
        "field": {"family": "radial", "c": 0.9 / 6.0},
        "mesh": {"n_r": 24, "n_theta": 48},
        "solver": {"max_iters": 200, "residual_tol": 1e-8, "update_tol": 1e-11},
        "verify": {"grid_size": 512, "n_boundary": n_boundary, "n_domain": n_domain},
        "output": {"surface_obj": "surface.obj", "solve_log": "solve.json", "report": report,
                   "radial_graph_csv": "radial_graph.csv", "profile_csv": "profile.csv"},
    }


class TestDefaults:
    @pytest.mark.parametrize("command", list(WRITES))
    def test_spelled_out_defaults_write_the_same_artifacts(self, tmp_path, command):
        written = {}
        for name, cfg in (("omitted", MINIMAL), ("spelled", spelled_out(command))):
            out = tmp_path / name
            out.mkdir()
            cfg_path = write_config(tmp_path, cfg, name=f"{name}.json")
            if command == "verify":
                assert cli.main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
            assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
            written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(written["omitted"]) == WRITES[command]
        assert written["spelled"] == written["omitted"]

    @pytest.mark.parametrize("g,const", [(None, 1.0), ({"cos": [0.1]}, None)],
                             ids=["no_g", "g_without_const"])
    def test_radial_factor_constant_term(self, tmp_path, capsys, g, const):
        # an absent g is 1; a g given without const is a config error
        cfg = solve_config()
        if g is not None:
            cfg["boundary"]["g"] = g
        if const is not None:
            assert cli.parse_boundary(cfg)[1].const == const
        else:
            cfg_path = write_config(tmp_path, cfg)
            assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 2
            assert "missing boundary g key 'const'" in capsys.readouterr().err

    def test_threads_flag_is_ignored(self, tmp_path):
        # --threads is accepted for interface compatibility only
        written = []
        for threads in ("1", "4"):
            out = tmp_path / threads
            out.mkdir()
            cfg_path = write_config(tmp_path, solve_config())
            for command in ("solve", "verify"):
                assert cli.main([command, "--config", cfg_path, "--out", str(out),
                                 "--threads", threads]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]

    def test_readme_table_lists_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", readme, flags=re.M)
        assert sorted(rows) == sorted((what, key) for what, keys in cli.SCHEMA.items()
                                      for key in keys)


@pytest.mark.skipif(shutil.which("conesurf") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    cfg_path = write_config(tmp_path, {"cone": {"beta": BETA}})
    proc = subprocess.run(
        ["conesurf", "profile-cone", "--config", cfg_path, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def run_python(code, cwd):
    """Run `code` in a fresh interpreter that imports conesurf from the
    sources under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestNumpyOnly:
    """conesurf needs numpy only; scipy is a test dependency.  These run in
    fresh interpreters, because the test session itself imports scipy."""

    def test_import_loads_no_scipy(self, tmp_path):
        proc = run_python("import sys, conesurf.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                          tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_solve_and_verify_run_with_scipy_blocked(self, tmp_path):
        # the radial field at 0.9 c_beta on (12, 24), and the flat oracle on
        # (7, 21), whose rings have an odd number of vertices
        flat = {"cone": {"beta": BETA},
                "boundary": {"type": "cap", "alpha_c": float(np.arctan(0.5)),
                             "g": {"const": float(np.sqrt(5.0))}},
                "field": {"family": "zero"},
                "mesh": {"n_r": 7, "n_theta": 21}}
        for name, cfg in (("radial", solve_config()), ("flat", flat)):
            write_config(tmp_path, cfg, name + ".json")
            (tmp_path / name).mkdir()
        proc = run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from conesurf import cli\n"
            "for name in ('radial', 'flat'):\n"
            "    for command in ('solve', 'verify'):\n"
            "        code = cli.main([command, '--config', name + '.json', '--out', name])\n"
            "        assert code == 0, (name, command, code)\n"
            "    with open(name + '/report.json') as f:\n"
            "        assert json.load(f)['pass'] is True, name\n"
            "print('ok')\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_check_domain_and_profile_cone_run_with_scipy_blocked(self, tmp_path):
        write_config(tmp_path, solve_config())
        proc = run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from conesurf import cli\n"
            "for command, report in (('check-domain', 'domain_report.json'),\n"
            "                        ('profile-cone', 'profile_report.json')):\n"
            "    code = cli.main([command, '--config', 'config.json', '--out', '.'])\n"
            "    assert code == 0, (command, code)\n"
            "    with open(report) as f:\n"
            "        assert json.load(f)['pass'] is True, command\n"
            "print('ok')\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
