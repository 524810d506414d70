"""Command-line pipeline: `solve`, `verify`, `check-domain`, `profile-cone`.

Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
4 verification failure.  All reports are JSON with `"schema": 1`;
meshes are OBJ, tables CSV.  The orchestration is sequential, so
identical configs yield bit-identical reports; `--threads` is accepted
for interface compatibility and `1` is always honored.
"""

import argparse
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
from .solver import SolveConfig, SurfaceState, conformality_defect, energies, solve
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
    cone = _require(config, "cone", dict)
    beta = _real(_require(cone, "beta"), "cone", "beta")
    if not (0.0 < beta < np.pi / 2):
        raise ConfigInvalid(f"beta {beta} not in (0, pi/2)")
    return beta


def parse_profiles(config, beta):
    """(delta, eps_list) of the cone block: delta a finite real with
    beta + delta in (0, pi/2), select_delta(beta) when absent; eps_list a
    non-empty list of positive reals."""
    cone = _require(config, "cone", dict)
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
    block = _require(config, "boundary", dict)
    kind = block.get("type", "cap")
    if kind not in ("cap", "perturbed_cap"):
        raise ConfigInvalid(f"unknown boundary type {kind!r}")
    alpha_c = _real(_require(block, "alpha_c"), "boundary", "alpha_c")
    if not 0.0 < alpha_c < np.pi / 2:
        raise ConfigInvalid(f"boundary key 'alpha_c' {alpha_c} not in (0, pi/2)")
    gd = block.get("g", {"const": 1.0})
    if not isinstance(gd, dict):
        raise ConfigInvalid(f"boundary key 'g' must be an object, got {gd!r}")
    try:
        boundary = SphericalBoundary(
            _fourier(alpha_c, block if kind == "perturbed_cap" else {}, "boundary"))
        g = _fourier(_real(gd.get("const", 0.0), "boundary g", "const"), gd, "boundary g")
    except OutOfRange as exc:
        raise ConfigInvalid(f"bad boundary block: {exc}") from exc
    return boundary, g


def parse_field(config):
    block = _require(config, "field", dict)
    try:
        return CurvatureField.from_dict(block)
    except (KeyError, TypeError, ConesurfError) as exc:
        raise ConfigInvalid(f"bad field block: {exc}") from exc


def _block(config, key):
    """The optional object `key` of the config, {} when absent."""
    block = config.get(key, {})
    if not isinstance(block, dict):
        raise ConfigInvalid(f"config key {key!r} has wrong type")
    return block


def _is_real(value):
    """True for a finite int or float; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and bool(np.isfinite(value)))


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


def parse_verify(config, **defaults):
    """{key: value} of the `verify` block for each key in defaults, the
    default standing in for an absent key."""
    block = _block(config, "verify")
    return {key: _typed(block, "verify", key, default, VERIFY_KINDS[key])
            for key, default in defaults.items()}


def parse_solver(config):
    block = config.get("solver", {})
    try:
        return SolveConfig(**block)
    except (TypeError, ConesurfError) as exc:
        raise ConfigInvalid(f"bad solver block: {exc}") from exc


def load_config(path):
    cfg = io.read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# Subcommands


def run_solve(config, out_dir):
    beta = parse_beta(config)
    boundary, g = parse_boundary(config)
    field = parse_field(config)
    n_r, n_theta = parse_mesh(config)
    solve_cfg = parse_solver(config)
    out = _block(config, "output")
    curve = build_curve(boundary, g, beta)
    try:
        mesh = build_disk_mesh(n_r, n_theta)
    except OutOfRange as exc:
        raise ConfigInvalid(f"bad mesh block: {exc}") from exc
    state = solve(mesh, curve, field, solve_cfg)

    obj_path = Path(out_dir) / out.get("surface_obj", "surface.obj")
    log_path = Path(out_dir) / out.get("solve_log", "solve.json")
    io.write_obj(obj_path, state.X, mesh.triangles)
    energy_F, energy_G = energies(state, field)
    io.write_json(log_path, {
        "schema": 1,
        "n_r": n_r,
        "n_theta": n_theta,
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


def parse_solve_log(path):
    """(mesh, boundary_theta) named by the solve log at path.  A missing or
    mistyped n_r, n_theta or boundary_theta, or n_theta boundary parameters
    that are not n_theta many, is an artifact error."""
    log = io.read_json(path)
    what = f"solve log {path}"
    if not isinstance(log, dict):
        raise ConfigInvalid(f"{what} is not a JSON object")
    for key in ("n_r", "n_theta", "boundary_theta"):
        if key not in log:
            raise ConfigInvalid(f"{what} lacks key {key!r}")
    n_r = _typed(log, what, "n_r", None, int)
    n_theta = _typed(log, what, "n_theta", None, int)
    theta = _reals(log["boundary_theta"], what, "boundary_theta")
    if len(theta) != n_theta:
        raise ConfigInvalid(
            f"{what} key 'boundary_theta' has {len(theta)} entries, n_theta is {n_theta}"
        )
    try:
        mesh = build_disk_mesh(n_r, n_theta)
    except OutOfRange as exc:
        raise ConfigInvalid(f"{what} keys 'n_r', 'n_theta': {exc}") from exc
    return mesh, np.asarray(theta)


def run_verify(config, out_dir, surface_path=None):
    beta = parse_beta(config)
    boundary, g = parse_boundary(config)
    field = parse_field(config)
    out = _block(config, "output")
    opts = parse_verify(config, grid_size=512, n_boundary=128, n_domain=1024,
                        branch_threshold=1e-6, stability_tol=1e-3, n_axes=16, n_probe=8)
    if surface_path is None:
        surface_path = Path(out_dir) / out.get("surface_obj", "surface.obj")
    log_path = Path(out_dir) / out.get("solve_log", "solve.json")
    X, faces = io.read_obj(surface_path)
    mesh, boundary_theta = parse_solve_log(log_path)
    if len(X) != len(mesh.vertices) or not np.array_equal(faces, mesh.triangles):
        raise ConfigInvalid("surface artifact does not match the mesh block")
    state = SurfaceState(mesh=mesh, X=X, boundary_theta=boundary_theta)

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
    io.write_json(Path(out_dir) / out.get("report", "report.json"), payload)

    # radial-graph CSV table over a structured grid
    grid = domain_grid(boundary, opts["grid_size"])
    lam = extract_radial_graph(state, grid)
    rows = np.column_stack([np.arctan2(grid[:, 1], grid[:, 0]), np.arccos(grid[:, 2]), lam])
    io.write_csv(
        Path(out_dir) / out.get("radial_graph_csv", "radial_graph.csv"),
        ("theta", "phi", "lambda"), rows,
    )

    return EXIT_OK if report.all_passed else EXIT_VERIFY


def run_check_domain(config, out_dir):
    beta = parse_beta(config)
    boundary, _ = parse_boundary(config)
    out = _block(config, "output")
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
    io.write_json(Path(out_dir) / out.get("report", "domain_report.json"), payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


def run_profile_cone(config, out_dir):
    beta = parse_beta(config)
    delta, eps_list = parse_profiles(config, beta)
    field = None
    if "field" in config:
        field = parse_field(config)

    out = _block(config, "output")
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
    io.write_csv(
        Path(out_dir) / out.get("profile_csv", "profile.csv"),
        ("eps", "t", "alpha1", "alpha2", "H_S"), np.vstack(tables),
    )
    io.write_json(Path(out_dir) / out.get("report", "profile_report.json"), payload)
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
