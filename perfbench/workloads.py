"""The benchmark's workloads: seeded configs, one operation each, and the
checks on every output of that operation.

Every workload drives the user-facing CLI in process through
`conesurf.cli.main`; the program receives only the generated config JSON.
"""

import contextlib
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

# One client in one process with BLAS/OpenMP on one thread, matching the
# CLI's `--threads 1`.  Takes effect when this module is imported before numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
HELDOUT_SEED = 7

BETA = math.pi / 3
RESIDUAL_TOL = 1e-8
UPDATE_TOL = 1e-11
# Two solves that each meet residual_tol agree on X to about
# residual_tol / (lambda_1 (1 - q)): lambda_1 ~ 5.8 is the first Dirichlet
# eigenvalue of the unit disk, and q ~ 0.11 the undamped Picard contraction
# measured on e2e_radial (0.554 per damped step).  That is 0.2 * residual_tol;
# the factor 10 leaves room for a solver that stops elsewhere below the
# tolerance, while a changed fixed point still shows.
X_TOL = 10.0 * RESIDUAL_TOL
FLAT_TOL = 1e-8
FLAT_HEIGHT = 2.0

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 2, 3


def import_cli(root=ROOT):
    """conesurf.cli from `root`/src, never from another installation."""
    src = Path(root) / "src"
    if not (src / "conesurf" / "__init__.py").is_file():
        raise FileNotFoundError(f"no conesurf sources under {src}")
    sys.path.insert(0, str(src))
    import conesurf.cli as cli

    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"conesurf imported from {where}, not from {src}")
    return cli


def c_beta(beta):
    """Radial growth bound cos(beta) / (2 (1 + cos(beta))) of the paper."""
    return math.cos(beta) / (2.0 * (1.0 + math.cos(beta)))


def _fourier(rng, orders, amplitude):
    """Cosine and sine coefficients for orders 1..max(orders); orders not
    listed stay zero."""
    top = max(orders)
    cos = [0.0] * top
    sin = [0.0] * top
    for k in orders:
        cos[k - 1] = float(rng.uniform(-amplitude, amplitude))
        sin[k - 1] = float(rng.uniform(-amplitude, amplitude))
    return cos, sin


def _perturbed_cap(rng):
    """Boundary block: colatitude 0.8 beta with small order-2 and order-3
    waves, radial factor 1 + 0.1 cos(theta) with small order-1 and order-2
    terms added.  Every draw in these ranges is beta-convex, converges at
    0.9 c_beta and passes verification (see README.md)."""
    a_cos, a_sin = _fourier(rng, (2, 3), 0.01)
    g_cos, g_sin = _fourier(rng, (1, 2), 0.02)
    g_cos[0] += 0.1
    return {
        "type": "perturbed_cap",
        "alpha_c": 0.8 * BETA,
        "cos": a_cos,
        "sin": a_sin,
        "g": {"const": 1.0, "cos": g_cos, "sin": g_sin},
    }


def _radial_config(rng, strength, n_r, n_theta):
    return {
        "cone": {"beta": BETA},
        "boundary": _perturbed_cap(rng),
        "field": {"family": "radial", "c": strength * c_beta(BETA)},
        "mesh": {"n_r": n_r, "n_theta": n_theta},
        "solver": {
            "max_iters": 400,
            "residual_tol": RESIDUAL_TOL,
            "update_tol": UPDATE_TOL,
        },
    }


def flat_config(ratio, n_r, n_theta):
    """Zero field over the circle of radius ratio * h at height h; the
    solution is the flat disk X(u, v) = (R u, R v, h)."""
    radius = ratio * FLAT_HEIGHT
    return {
        "cone": {"beta": BETA},
        "boundary": {
            "type": "cap",
            "alpha_c": math.atan2(radius, FLAT_HEIGHT),
            "g": {"const": math.hypot(radius, FLAT_HEIGHT)},
        },
        "field": {"family": "zero"},
        "mesh": {"n_r": n_r, "n_theta": n_theta},
        "solver": {"residual_tol": RESIDUAL_TOL, "update_tol": UPDATE_TOL},
        "verify": {"grid_size": 1024},
    }


def make_config(workload, seed):
    """The config of one workload for one seed; the same seed gives the
    same config."""
    rng = np.random.default_rng(seed)
    if workload == "e2e_radial":
        return _radial_config(rng, 0.9, 48, 96)
    if workload == "diverge_strong":
        return _radial_config(rng, 10.0, 12, 24)
    if workload == "flat_verify":
        return flat_config(float(rng.uniform(0.4, 0.6)), 64, 128)
    raise KeyError(f"unknown workload {workload!r}")


def probe_config(config):
    """The flat oracle of `config` at (96, 192), where the fixed
    residual_tol is below the zero-field round-off floor."""
    probe = json.loads(json.dumps(config))
    probe["mesh"] = {"n_r": 96, "n_theta": 192}
    return probe


# ---------------------------------------------------------------------------
# One operation


@dataclass
class Step:
    command: str
    code: int
    seconds: float
    stderr: str


@dataclass
class Outcome:
    steps: list
    warnings_leaked: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    def seconds(self, command):
        return sum(s.seconds for s in self.steps if s.command == command)


def run_cli(cli, command, config_path, out_dir, tracer=None):
    """Run one subcommand in process; returns (exit code, seconds, stderr,
    RuntimeWarnings emitted)."""
    argv = [command, "--config", str(config_path), "--out", str(out_dir),
            "--threads", "1"]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli", cli.main, (argv,), {})
        seconds = time.perf_counter() - t0
    leaked = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return code, seconds, err.getvalue(), leaked


def run_operation(cli, workload, config, out_dir, reference=None, tracer=None,
                  commands=None):
    """Run the workload's commands on `config` in the empty directory
    `out_dir` and check every output."""
    out_dir = Path(out_dir)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config))
    outcome = Outcome(steps=[])
    for command in commands or ("solve", "verify"):
        try:
            code, seconds, stderr, leaked = run_cli(cli, command, config_path,
                                                    out_dir, tracer)
        except Exception as exc:  # an untyped failure of the program
            outcome.problems.append(f"{command} raised {type(exc).__name__}: {exc}")
            return outcome
        outcome.steps.append(Step(command, code, seconds, stderr))
        outcome.warnings_leaked += leaked
    CHECKS[workload](outcome, config, out_dir, reference)
    return outcome


# ---------------------------------------------------------------------------
# Output checks


def read_vertices(path):
    """Vertex block of an OBJ file, parsed independently of conesurf."""
    rows = [line.split()[1:4] for line in Path(path).read_text().splitlines()
            if line.startswith("v ")]
    return np.array(rows, dtype=float)


def disk_vertices(n_r, n_theta):
    """(u, v) of the polar disk mesh: the center, then rings i/n_r."""
    ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rings = [np.zeros((1, 2))]
    for i in range(1, n_r + 1):
        r = i / n_r
        rings.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    return np.vstack(rings)


def _expect_codes(outcome, expected):
    got = tuple(s.code for s in outcome.steps)
    if got != expected:
        detail = " | ".join(s.stderr.strip() for s in outcome.steps if s.stderr)
        outcome.problems.append(f"exit codes {got}, expected {expected}: {detail}")
        return False
    return True


def _expect_report_pass(outcome, out_dir):
    report = json.loads((out_dir / "report.json").read_text())
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        outcome.problems.append(f"report does not pass: {failed}")


def check_e2e_radial(outcome, config, out_dir, reference):
    if not _expect_codes(outcome, (EXIT_OK,) * len(outcome.steps)):
        return
    log = json.loads((out_dir / "solve.json").read_text())
    tol = config["solver"]["residual_tol"]
    if not log["residual"] <= tol:
        outcome.problems.append(f"residual {log['residual']:.3e} > {tol:.1e}")
    if "verify" in (s.command for s in outcome.steps):
        _expect_report_pass(outcome, out_dir)
    if reference is not None:
        X = read_vertices(out_dir / "surface.obj")
        if X.shape != reference.shape:
            outcome.problems.append(f"X has shape {X.shape}, reference {reference.shape}")
        else:
            err = float(np.max(np.abs(X - reference)))
            if not err <= X_TOL:
                outcome.problems.append(f"X differs from reference by {err:.3e}")


def check_flat_verify(outcome, config, out_dir, reference):
    if not _expect_codes(outcome, (EXIT_OK,) * len(outcome.steps)):
        return
    mesh = config["mesh"]
    uv = disk_vertices(mesh["n_r"], mesh["n_theta"])
    radius = math.tan(config["boundary"]["alpha_c"]) * FLAT_HEIGHT
    exact = np.column_stack([radius * uv, np.full(len(uv), FLAT_HEIGHT)])
    X = read_vertices(out_dir / "surface.obj")
    if X.shape != exact.shape:
        outcome.problems.append(f"X has shape {X.shape}, expected {exact.shape}")
    else:
        err = float(np.max(np.abs(X - exact)))
        if not err <= FLAT_TOL:
            outcome.problems.append(f"X is {err:.3e} off the exact plane")
    if "verify" in (s.command for s in outcome.steps):
        _expect_report_pass(outcome, out_dir)


def check_diverge_strong(outcome, config, out_dir, reference):
    """The solve fails with the typed NoConvergence, the only error the CLI
    maps to exit 3, and leaves no surface; the verify that follows reports
    the missing artifact as a typed I/O error (exit 2)."""
    if not _expect_codes(outcome, (EXIT_SOLVER, EXIT_CONFIG)):
        return
    if (out_dir / "surface.obj").exists():
        outcome.problems.append("failed solve left a surface artifact")


CHECKS = {
    "e2e_radial": check_e2e_radial,
    "flat_verify": check_flat_verify,
    "diverge_strong": check_diverge_strong,
}
WORKLOADS = tuple(CHECKS)


def load_reference(workload, seed):
    """Stored X of the workload's default-seed solve, or None."""
    path = REFERENCE_DIR / f"{workload}_seed{seed}.npy"
    return np.load(path) if path.is_file() else None
