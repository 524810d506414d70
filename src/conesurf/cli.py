"""Command-line pipeline: `solve`, `verify`, `check-domain`, `profile-cone`.

`solve` and `verify` build the same problem from the config: the cone's
beta, the validated curve Gamma, the field and the mesh.  Both place the
boundary ring at equal arclength along Gamma, so `verify` reads only the
config and the OBJ surface; `solve.json` is a record of the solve, not
an input.

Every config object is read through one table, `SCHEMA`, by one reader,
`read`: an unknown key, a missing required key or a value of the wrong
kind exits 2 naming the key, and absent keys take the table's defaults.
A command reads only the blocks it uses.  Left outside the table are the
checks that span keys (beta + delta, `eps_list`, the boundary type), the
field's parameters (checked by `CurvatureField`), the solver's values
(checked by `SolveConfig`) and the defaults that differ between commands
(`check-domain`'s AxisMap sizes, each command's `report` name).

Exit codes: 0 success, 2 invalid or unreadable input, 3 solver failure,
4 verification failure.  All reports are JSON with `"schema": 1`;
meshes are OBJ, tables CSV.  The orchestration is sequential, so
identical configs yield bit-identical reports; `--threads` is accepted
for interface compatibility and `1` is always honored.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import io
from .boundary import (
    AxisMap,
    FourierScalar,
    SphericalBoundary,
    build_curve,
    is_convex,
    orientation_sign,
)
from .cone_smoothing import (
    check_enclosure_curvature,
    junction_jumps,
    make_profile,
    min_cap_curvature,
    profile_mean_curvature,
    select_delta,
)
from .errors import (
    ConesurfError,
    ConfigInvalid,
    IoError,
    NoConvergence,
    NotBetaConvexAt,
    OutOfRange,
    SignChange,
)
from .fields import CurvatureField, is_real
from .mesh import build_disk_mesh
from .solver import (SolveConfig, SurfaceState, arclength_parametrization,
                     conformality_defect, energies, solve)
from .verifier import domain_grid, extract_radial_graph, verify_surface

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# Config schema

REQUIRED = object()  # the default of a key the config must give

# The kinds of config values, each (test, what a value must be, conversion).
REAL = (is_real, "a finite real number", float)
ANGLE = (lambda v: is_real(v) and 0.0 < v < np.pi / 2, "an angle in (0, pi/2)", float)
# below 1, every triangle with E >= median(E) keeps its Gauss-map normal
FRACTION = (lambda v: is_real(v) and 0.0 <= v < 1.0, "a real number in [0, 1)", float)
REALS = (lambda v: isinstance(v, list) and all(map(is_real, v)),
         "a list of finite real numbers", lambda v: [float(x) for x in v])
COUNT = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
         "a positive integer", int)
NAME = (lambda v: isinstance(v, str) and v != "", "a non-empty string", str)
# A kind of None marks a value checked where it is used: an OBJECT when its
# own block is read, so that a command reads only the blocks it uses, and a
# SOLVER value by SolveConfig, the only source of the solver's keys.
OBJECT = SOLVER = None

# {object: {key: (kind, default)}} of every config object; "config" is the
# root, and each name ends with the key its object sits under.  An absent
# delta is select_delta(beta); the field block holds `family` and that
# family's parameters, which CurvatureField checks.
SCHEMA = {
    "config": {"cone": (OBJECT, REQUIRED), "boundary": (OBJECT, REQUIRED),
               "field": (OBJECT, REQUIRED), "mesh": (OBJECT, {}), "solver": (OBJECT, {}),
               "verify": (OBJECT, {}), "output": (OBJECT, {})},
    "cone": {"beta": (ANGLE, REQUIRED), "delta": (REAL, None),
             "eps_list": (REALS, [0.1, 0.05, 0.025])},
    "cap boundary": {"type": (NAME, "cap"), "alpha_c": (ANGLE, REQUIRED),
                     "g": (OBJECT, {"const": 1.0})},
    "perturbed_cap boundary": {"type": (NAME, REQUIRED), "alpha_c": (ANGLE, REQUIRED),
                               "g": (OBJECT, {"const": 1.0}), "cos": (REALS, []),
                               "sin": (REALS, [])},
    "boundary g": {"const": (REAL, REQUIRED), "cos": (REALS, []), "sin": (REALS, [])},
    "mesh": {"n_r": (COUNT, 24), "n_theta": (COUNT, 48)},
    "solver": {f.name: (SOLVER, f.default) for f in dataclasses.fields(SolveConfig)},
    "verify": {"grid_size": (COUNT, 512), "n_boundary": (COUNT, 128),
               "n_domain": (COUNT, 1024), "n_axes": (COUNT, 16), "n_probe": (COUNT, 8),
               "branch_threshold": (FRACTION, 1e-6), "stability_tol": (REAL, 1e-3)},
    "output": {"surface_obj": (NAME, "surface.obj"), "solve_log": (NAME, "solve.json"),
               "report": (NAME, "report.json"), "radial_graph_csv": (NAME, "radial_graph.csv"),
               "profile_csv": (NAME, "profile.csv")},
}


def _object(value, key):
    """value, which must be the config object at `key`."""
    if value is REQUIRED:
        raise ConfigInvalid(f"missing config key {key!r}")
    if not isinstance(value, dict):
        raise ConfigInvalid(f"config key {key!r} has wrong type")
    return value


def read(block, what, **overrides):
    """{key: value} of the config object `block` for each key of
    SCHEMA[what]: a given value tested and converted by its kind, an
    absent one at its default, overrides standing in for the table's.
    An unknown key, a missing required key or a value of the wrong kind
    raises ConfigInvalid naming the key."""
    schema = SCHEMA[what]
    for key in _object(block, what.split()[-1]):
        if key not in schema:
            raise ConfigInvalid(f"unknown {what} key {key!r}")
    values = {}
    for key, (kind, default) in schema.items():
        value = block.get(key, overrides.get(key, default))
        if key in block and kind is not None:
            test, must_be, convert = kind
            if not test(value):
                raise ConfigInvalid(f"{what} key {key!r} must be {must_be}, got {value!r}")
            value = convert(value)
        elif value is REQUIRED and kind is not None:
            raise ConfigInvalid(f"missing {what} key {key!r}")
        values[key] = value
    return values


def _built(what, build, *args, **kwargs):
    """build(*args, **kwargs); an OutOfRange from it is a config error in
    block `what`."""
    try:
        return build(*args, **kwargs)
    except OutOfRange as exc:
        raise ConfigInvalid(f"bad {what} block: {exc}") from exc


def parse_beta(config):
    return read(config["cone"], "cone")["beta"]


def parse_profiles(config, beta):
    """(delta, eps_list) of the cone block: beta + delta in (0, pi/2), and
    eps_list a non-empty list of positive reals."""
    cone = read(config["cone"], "cone")
    delta, eps_list = cone["delta"], cone["eps_list"]
    if delta is None:
        delta = select_delta(beta)
    elif not 0.0 < beta + delta < np.pi / 2:
        raise ConfigInvalid(f"cone key 'delta' {delta!r}: beta + delta not in (0, pi/2)")
    if not eps_list or min(eps_list) <= 0.0:
        raise ConfigInvalid(f"cone key 'eps_list' must hold positive reals, got {eps_list!r}")
    return float(delta), eps_list


def parse_boundary(config):
    """(boundary, g) of the boundary block, whose `type` names its keys.
    OutOfRange from building them, such as a Fourier order above the cap
    or a profile leaving (0, pi/2), is a config error."""
    block = config["boundary"]
    kind = block.get("type", "cap") if isinstance(block, dict) else "cap"
    if f"{kind} boundary" not in SCHEMA:
        raise ConfigInvalid(f"unknown boundary type {kind!r}")
    b = read(block, f"{kind} boundary")
    g = read(b["g"], "boundary g")
    alpha = _built("boundary", FourierScalar, b["alpha_c"], b.get("cos", []), b.get("sin", []))
    return (_built("boundary", SphericalBoundary, alpha),
            _built("boundary", FourierScalar, g["const"], g["cos"], g["sin"]))


def parse_field(config):
    """CurvatureField of the field block: its `family` and that family's
    parameters, which CurvatureField checks."""
    params = dict(_object(config["field"], "field"))
    if "family" not in params:
        raise ConfigInvalid("missing field key 'family'")
    return _built("field", CurvatureField, params.pop("family"), **params)


def parse_output(config, out_dir, **overrides):
    """{key: out_dir / name} of the output block."""
    names = read(config["output"], "output", **overrides)
    return {key: Path(out_dir) / name for key, name in names.items()}


def build_problem(config):
    """(beta, curve, field, mesh) of a solve or verify run: the cone's
    beta, the curve Gamma validated against the cone, the field and the
    mesh.  An OutOfRange from building the curve or the mesh, such as a
    radial factor g <= 0, is a config error."""
    beta = parse_beta(config)
    boundary, g = parse_boundary(config)
    field = parse_field(config)
    mesh = read(config["mesh"], "mesh")
    curve = _built("boundary", build_curve, boundary, g, beta)
    return beta, curve, field, _built("mesh", build_disk_mesh, mesh["n_r"], mesh["n_theta"])


# ---------------------------------------------------------------------------
# Subcommands


def run_solve(config, out_dir):
    solve_cfg = _built("solver", SolveConfig, **read(config["solver"], "solver"))
    paths = parse_output(config, out_dir)
    beta, curve, field, mesh = build_problem(config)
    state = solve(mesh, curve, field, solve_cfg)

    io.write_obj(paths["surface_obj"], state.X, mesh.triangles)
    energy_F, energy_G = energies(state, field)
    io.write_json(paths["solve_log"], {
        "schema": 1,
        "n_r": mesh.n_r,
        "n_theta": mesh.n_theta,
        "beta": beta,
        "iterations": state.iterations,
        "residual": state.residual,
        "boundary_theta": state.boundary_theta.tolist(),
        "conformality_defect": conformality_defect(state),
        "energy_F": energy_F,
        "energy_G": energy_G,
        "iteration_log": state.iteration_log,
        "level_iterations": state.level_iterations,
        "level_contraction": state.level_contraction,
    })
    return EXIT_OK


def run_verify(config, out_dir, surface_path=None):
    paths = parse_output(config, out_dir)
    opts = read(config["verify"], "verify")
    # a missing surface fails before anything is built
    X, faces = io.read_obj(paths["surface_obj"] if surface_path is None else surface_path)
    beta, curve, field, mesh = build_problem(config)
    if len(X) != len(mesh.vertices) or not np.array_equal(faces, mesh.triangles):
        raise ConfigInvalid("surface artifact does not match the mesh block")
    state = SurfaceState(mesh=mesh, X=X,
                         boundary_theta=arclength_parametrization(curve, mesh.n_theta))

    boundary = curve.boundary
    axis_map = AxisMap(
        boundary, beta, n_boundary=opts["n_boundary"], n_domain=opts["n_domain"],
    )
    report = verify_surface(
        state, field, beta, axis_map=axis_map, boundary=boundary,
        grid_size=opts["grid_size"],
        branch_threshold=opts["branch_threshold"],
        stability_tol=opts["stability_tol"],
        n_axes=opts["n_axes"],
        n_probe=opts["n_probe"],
    )
    io.write_json(paths["report"], report)

    # radial-graph CSV table over domain_grid's seeded random sample of the domain
    grid = domain_grid(boundary, opts["grid_size"])
    lam = extract_radial_graph(state, grid)
    rows = np.column_stack([np.arctan2(grid[:, 1], grid[:, 0]), np.arccos(grid[:, 2]), lam])
    io.write_csv(paths["radial_graph_csv"], ("theta", "phi", "lambda"), rows)

    return EXIT_OK if report["pass"] else EXIT_VERIFY


def run_check_domain(config, out_dir):
    beta = parse_beta(config)
    boundary, _ = parse_boundary(config)
    paths = parse_output(config, out_dir, report="domain_report.json")
    opts = read(config["verify"], "verify", n_boundary=256, n_domain=2048)
    n_boundary, n_domain = opts["n_boundary"], opts["n_domain"]
    convex = is_convex(boundary, n_boundary, n_domain)
    flag, margin, orient, orient_err = False, float("-inf"), None, None
    try:
        axis_map = AxisMap(boundary, beta, n_boundary, n_domain)
        flag, margin = True, axis_map.margin
        orient = orientation_sign(boundary, beta, axis_map=axis_map)
    except NotBetaConvexAt:
        pass  # reported as beta_convex false, with no axes to orient
    except SignChange as exc:
        orient_err = str(exc)
    payload = {
        "schema": 1,
        "beta": beta,
        "beta_convex": flag,
        "beta_convexity_margin": margin,
        "convex": convex,
        "orientation_sign": orient,
        "orientation_error": orient_err,
        "n_boundary": n_boundary,
        "n_domain": n_domain,
        "pass": bool(flag and convex and orient == -1),
    }
    io.write_json(paths["report"], payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


def run_profile_cone(config, out_dir):
    beta = parse_beta(config)
    delta, eps_list = parse_profiles(config, beta)
    field = None if config["field"] is REQUIRED else parse_field(config)
    paths = parse_output(config, out_dir, report="profile_report.json")
    reports = []
    tables = []
    mins = []
    for eps in eps_list:
        profile = make_profile(beta, delta, eps)
        jumps = junction_jumps(profile)
        m = min_cap_curvature(profile, 256)
        mins.append(m)
        entry = {
            "eps": eps,
            "t_eps": profile.t_eps,
            "junction_jumps": jumps,
            "min_cap_curvature": m,
        }
        if field is not None:
            entry["enclosure"] = check_enclosure_curvature(profile, field)
        reports.append(entry)
        ts = np.linspace(0.0, 4.0 * profile.t_eps, 128)
        tables.append(np.column_stack([
            np.full_like(ts, eps), ts, profile.alpha1(ts), profile.alpha2(ts),
            profile_mean_curvature(profile, ts),
        ]))
    # successive ratio of minimum cap curvatures; ~2 when eps is halved
    ratios = [mins[i + 1] / mins[i] for i in range(len(mins) - 1)]
    payload = {
        "schema": 1,
        "beta": beta,
        "delta": delta,
        "profiles": reports,
        "min_curvature_ratios": ratios,
        "pass": all(
            abs(r["junction_jumps"]["value"]) <= 1e-10 * r["eps"]
            and abs(r["junction_jumps"]["first"]) <= 1e-10
            and abs(r["junction_jumps"]["second"]) <= 1e-8 / r["eps"]
            for r in reports
        ),
    }
    io.write_csv(paths["profile_csv"], ("eps", "t", "alpha1", "alpha2", "H_S"),
                 np.vstack(tables))
    io.write_json(paths["report"], payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conesurf",
        description="Prescribed-mean-curvature surfaces in cones: solve and verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "check-domain", "profile-cone"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="1 guarantees bit-reproducible reports")
        if name == "verify":
            p.add_argument("--surface", default=None, help="OBJ surface artifact")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = read(io.read_json(args.config), "config")
        out_dir = Path(args.out)
        if not out_dir.exists():
            raise IoError(out_dir, f"output directory does not exist: {out_dir}")
        if args.command == "solve":
            return run_solve(config, out_dir)
        if args.command == "verify":
            return run_verify(config, out_dir, args.surface)
        if args.command == "check-domain":
            return run_check_domain(config, out_dir)
        return run_profile_cone(config, out_dir)
    except (ConfigInvalid, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ConesurfError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
