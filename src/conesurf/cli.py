"""Command-line pipeline: `solve`, `verify`, `check-domain`, `profile-cone`.

`solve` and `verify` build the same problem from the config: the cone's
beta, the validated curve Gamma, the field and the mesh.  Both place the
boundary ring at equal arclength along Gamma, so `verify` reads only the
config and the OBJ surface; `solve.json` is a record of the solve, not
an input.  Every config object is closed: an unknown key exits 2.

Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
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
from .fields import CurvatureField
from .mesh import build_disk_mesh
from .solver import (SolveConfig, SurfaceState, arclength_parametrization,
                     conformality_defect, energies, solve)
from .verifier import domain_grid, extract_radial_graph, verify_surface

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# Config parsing


def _require(block, key, kind=None):
    if key not in block:
        raise ConfigInvalid(f"missing config key {key!r}")
    val = block[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigInvalid(f"config key {key!r} has wrong type")
    return val


def parse_beta(config):
    cone = _block(config, "cone", required=True)
    beta = _real(_require(cone, "beta"), "cone", "beta")
    if not (0.0 < beta < np.pi / 2):
        raise ConfigInvalid(f"beta {beta} not in (0, pi/2)")
    return beta


def parse_profiles(config, beta):
    """(delta, eps_list) of the cone block: delta a finite real with
    beta + delta in (0, pi/2), select_delta(beta) when absent; eps_list a
    non-empty list of positive reals."""
    cone = _block(config, "cone", required=True)
    delta = cone.get("delta")
    if delta is None:
        delta = select_delta(beta)
    elif not 0.0 < beta + _real(delta, "cone", "delta") < np.pi / 2:
        raise ConfigInvalid(f"cone key 'delta' {delta!r}: beta + delta not in (0, pi/2)")
    eps_list = _reals(cone.get("eps_list", [0.1, 0.05, 0.025]), "cone", "eps_list")
    if not eps_list or min(eps_list) <= 0.0:
        raise ConfigInvalid(f"cone key 'eps_list' must hold positive reals, got {eps_list!r}")
    return float(delta), eps_list


def _fourier(const, block, what):
    """FourierScalar with constant term const and the coefficient lists
    block["cos"], block["sin"] (finite reals, empty when absent)."""
    return FourierScalar(const, _reals(block.get("cos", []), what, "cos"),
                         _reals(block.get("sin", []), what, "sin"))


def parse_boundary(config):
    """(boundary, g) of the boundary block.  OutOfRange from building them,
    such as a Fourier order above the cap or a profile leaving (0, pi/2),
    is a config error."""
    kind = _require(config, "boundary", dict).get("type", "cap")
    if f"{kind} boundary" not in KNOWN_KEYS:
        raise ConfigInvalid(f"unknown boundary type {kind!r}")
    block = _block(config, "boundary", what=f"{kind} boundary")
    alpha_c = _real(_require(block, "alpha_c"), "boundary", "alpha_c")
    if not 0.0 < alpha_c < np.pi / 2:
        raise ConfigInvalid(f"boundary key 'alpha_c' {alpha_c} not in (0, pi/2)")
    gd = _block(block, "g", what="boundary g") if "g" in block else {"const": 1.0}
    try:
        boundary = SphericalBoundary(_fourier(alpha_c, block, "boundary"))
        g = _fourier(_real(gd.get("const", 0.0), "boundary g", "const"), gd, "boundary g")
    except OutOfRange as exc:
        raise ConfigInvalid(f"bad boundary block: {exc}") from exc
    return boundary, g


def parse_field(config):
    block = _require(config, "field", dict)
    _require(block, "family")
    return _built("field", CurvatureField.from_dict, block)


def _block(parent, key, what=None, required=False):
    """The object parent[key], {} when absent and not required; each of its
    keys must be one of KNOWN_KEYS[what], `what` defaulting to key."""
    block = _require(parent, key, dict) if required else parent.get(key, {})
    if not isinstance(block, dict):
        raise ConfigInvalid(f"config key {key!r} has wrong type")
    _known(block, what or key)
    return block


def _built(what, build, *args, **kwargs):
    """build(*args, **kwargs); an OutOfRange from it is a config error in
    block `what`."""
    try:
        return build(*args, **kwargs)
    except OutOfRange as exc:
        raise ConfigInvalid(f"bad {what} block: {exc}") from exc


def _is_real(value):
    """True for a finite int or float; bools are not numbers here, and the
    comparison also rejects NaN and ints beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _real(value, what, key):
    if not _is_real(value):
        raise ConfigInvalid(f"{what} key {key!r} must be a finite real number, got {value!r}")
    return float(value)


def _reals(value, what, key):
    if not (isinstance(value, list) and all(_is_real(v) for v in value)):
        raise ConfigInvalid(
            f"{what} key {key!r} must be a list of finite real numbers, got {value!r}"
        )
    return [float(v) for v in value]


def _typed(block, what, key, default, kind):
    """block[key] (or default) as kind: a positive int for kind int, a
    finite real number for kind float; bools are neither."""
    value = block.get(key, default)
    if kind is float:
        return _real(value, what, key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigInvalid(f"{what} key {key!r} must be a positive integer, got {value!r}")
    return int(value)


def parse_mesh(config):
    block = _block(config, "mesh")
    return (_typed(block, "mesh", "n_r", 24, int),
            _typed(block, "mesh", "n_theta", 48, int))


# verify-block keys: the counts are positive integers, the thresholds finite reals
VERIFY_KINDS = {
    "grid_size": int,
    "n_boundary": int,
    "n_domain": int,
    "n_axes": int,
    "n_probe": int,
    "branch_threshold": float,
    "stability_tol": float,
}

# The keys each config object may hold; "config" is the root, and the
# "<type> boundary" entries name the boundary types.  The field block's
# keys are its family's parameters, which CurvatureField checks.
KNOWN_KEYS = {
    "config": ("cone", "boundary", "field", "mesh", "solver", "verify", "output"),
    "cone": ("beta", "delta", "eps_list"),
    "cap boundary": ("type", "alpha_c", "g"),
    "perturbed_cap boundary": ("type", "alpha_c", "g", "cos", "sin"),
    "boundary g": ("const", "cos", "sin"),
    "mesh": ("n_r", "n_theta"),
    "solver": tuple(f.name for f in dataclasses.fields(SolveConfig)),
    "verify": tuple(VERIFY_KINDS),
    "output": ("surface_obj", "solve_log", "report", "radial_graph_csv", "profile_csv"),
}


def _known(block, what):
    """Reject the first key of block that KNOWN_KEYS[what] lacks."""
    for key in block:
        if key not in KNOWN_KEYS[what]:
            raise ConfigInvalid(f"unknown {what} key {key!r}")


def parse_verify(config, **defaults):
    """{key: value} of the `verify` block for each key in defaults, the
    default standing in for an absent key."""
    block = _block(config, "verify")
    return {key: _typed(block, "verify", key, default, VERIFY_KINDS[key])
            for key, default in defaults.items()}


def parse_solver(config):
    return _built("solver", SolveConfig, **_block(config, "solver"))


def parse_output(config, out_dir, **defaults):
    """{key: out_dir / name} for each key in defaults, the `output` block's
    name standing in for the default; every name there is a non-empty
    string."""
    block = _block(config, "output")
    for key, name in block.items():
        if not (isinstance(name, str) and name):
            raise ConfigInvalid(f"output key {key!r} must be a non-empty string, got {name!r}")
    return {key: Path(out_dir) / block.get(key, default) for key, default in defaults.items()}


def build_problem(config):
    """(beta, curve, field, mesh) of a solve or verify run: the cone's
    beta, the curve Gamma validated against the cone, the field and the
    mesh.  An OutOfRange from building the curve or the mesh, such as a
    radial factor g <= 0, is a config error."""
    beta = parse_beta(config)
    boundary, g = parse_boundary(config)
    field = parse_field(config)
    n_r, n_theta = parse_mesh(config)
    curve = _built("boundary", build_curve, boundary, g, beta)
    return beta, curve, field, _built("mesh", build_disk_mesh, n_r, n_theta)


def load_config(path):
    cfg = io.read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be a JSON object")
    _known(cfg, "config")
    return cfg


# ---------------------------------------------------------------------------
# Subcommands


def run_solve(config, out_dir):
    solve_cfg = parse_solver(config)
    paths = parse_output(config, out_dir, surface_obj="surface.obj", solve_log="solve.json")
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
        "level_damping": state.level_damping,
        "level_contraction": state.level_contraction,
    })
    return EXIT_OK


def run_verify(config, out_dir, surface_path=None):
    paths = parse_output(config, out_dir, surface_obj="surface.obj", report="report.json",
                         radial_graph_csv="radial_graph.csv")
    opts = parse_verify(config, grid_size=512, n_boundary=128, n_domain=1024,
                        branch_threshold=1e-6, stability_tol=1e-3, n_axes=16, n_probe=8)
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
    payload = report.to_dict()
    payload["beta_convexity_margin"] = axis_map.margin
    io.write_json(paths["report"], payload)

    # radial-graph CSV table over domain_grid's seeded random sample of the domain
    grid = domain_grid(boundary, opts["grid_size"])
    lam = extract_radial_graph(state, grid)
    rows = np.column_stack([np.arctan2(grid[:, 1], grid[:, 0]), np.arccos(grid[:, 2]), lam])
    io.write_csv(paths["radial_graph_csv"], ("theta", "phi", "lambda"), rows)

    return EXIT_OK if report.all_passed else EXIT_VERIFY


def run_check_domain(config, out_dir):
    beta = parse_beta(config)
    boundary, _ = parse_boundary(config)
    paths = parse_output(config, out_dir, report="domain_report.json")
    opts = parse_verify(config, n_boundary=256, n_domain=2048)
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
    field = None
    if "field" in config:
        field = parse_field(config)

    paths = parse_output(config, out_dir, profile_csv="profile.csv",
                         report="profile_report.json")
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
        config = load_config(args.config)
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
