"""Per-layer tracing of conesurf from outside the package.

A `Tracer` wraps public functions and methods of conesurf, replacing every
binding of each one (the defining module, every module that imported it by
name, and the package root), and restores all of them on `uninstall`.  The
program itself is not changed.

Three kinds of probe:

* ``SPAN``  -- each call is timed, its self time (duration minus the time of
  traced calls made inside it) is added to its metric stem, and the call is
  kept as a span record (name, start, end, parent span, operation id).
* ``LEAF``  -- timed and counted like a span, but not kept as a record: these
  are the per-point calls (about 1.25 M per operation) whose records would
  dominate memory.
* ``COUNT`` -- only counted; the call's time stays with its caller.

Probes name public callables only, so that private helpers can be removed
without breaking the benchmark.
"""

import functools
import os
import sys
import time

SPAN, LEAF, COUNT = "span", "leaf", "count"
PACKAGE = "conesurf"

_MARK = "__perfbench_wrapped__"


def _iterations(tracer, args, result, exc):
    """Picard iterations of one solve: from the state, or from the typed
    failure when the solve did not converge."""
    source = result if exc is None else exc
    n = getattr(source, "iterations", None)
    if n is not None:
        tracer.add("solver.iterations", int(n))


def _bytes_written(tracer, args, result, exc):
    if exc is None:
        tracer.add("io.bytes_written", os.path.getsize(args[0]))


# (metric stem, module, class or None, attribute, kind, hook)
PROBES = (
    ("fields.eval", "conesurf.fields", "CurvatureField", "eval", LEAF, None),
    ("fields.grad", "conesurf.fields", "CurvatureField", "grad", LEAF, None),
    ("fields.potential", "conesurf.fields", None, "build_potential_Q", LEAF, None),
    ("solver.solve", "conesurf.solver", None, "solve", SPAN, _iterations),
    ("solver.energy", "conesurf.solver", None, "energy_F", SPAN, None),
    ("solver.energy", "conesurf.solver", None, "energy_G", SPAN, None),
    ("solver.energy", "conesurf.solver", None, "conformality_defect", SPAN, None),
    ("solver.residual", "conesurf.solver", None, "solve_residual", SPAN, None),
    ("mesh.build", "conesurf.mesh", None, "build_disk_mesh", SPAN, None),
    ("mesh.second_derivatives", "conesurf.mesh", "DiskMesh", "second_derivatives",
     SPAN, None),
    ("verifier.gauss_map", "conesurf.verifier", None, "gauss_map", SPAN, None),
    ("verifier.density", "conesurf.verifier", None, "density_field", SPAN, None),
    ("verifier.eigen", "conesurf.verifier", None, "stability_eigenvalue", SPAN, None),
    ("verifier.enclosure", "conesurf.verifier", None, "check_enclosure", SPAN, None),
    ("verifier.radial_normal", "conesurf.verifier", None, "check_radial_normal",
     SPAN, None),
    ("verifier.cone_condition", "conesurf.verifier", None,
     "check_cone_condition_functions", SPAN, None),
    ("verifier.degree", "conesurf.verifier", None, "projection_degree", SPAN, None),
    ("verifier.jacobian", "conesurf.verifier", None, "jacobian_identity_check",
     SPAN, None),
    ("verifier.radial_graph", "conesurf.verifier", None, "extract_radial_graph",
     SPAN, None),
    ("boundary.axis_at", "conesurf.boundary", None, "axis_at", COUNT, None),
    ("boundary.domain", "conesurf.boundary", None, "is_beta_convex", SPAN, None),
    ("boundary.domain", "conesurf.boundary", "AxisMap", "__init__", SPAN, None),
    ("io.write", "conesurf.io", None, "write_obj", SPAN, _bytes_written),
    ("io.write", "conesurf.io", None, "write_json", SPAN, _bytes_written),
    ("io.write", "conesurf.io", None, "write_csv", SPAN, _bytes_written),
    ("io.read", "conesurf.io", None, "read_obj", SPAN, None),
    ("io.read", "conesurf.io", None, "read_json", SPAN, None),
)


def package_modules():
    """Loaded modules of the package, the package itself included."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bindings(obj):
    """(owner, attribute) pairs through which package code reaches `obj`:
    module globals and class attributes that hold this very object."""
    found = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is obj:
                found.append((mod, attr))
            elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is obj and (value, cattr) not in found:
                        found.append((value, cattr))
    return found


class Tracer:
    """Spans and per-stem counters for traced calls; one per traced run."""

    def __init__(self):
        self.stats = {}      # stem -> [calls, self_s]
        self.counters = {}   # name -> int
        self.spans = []      # [name, start, end, parent, op_id]
        self.op_id = None
        self._stack = []     # frames: [child_s, nearest recorded span index]
        self._patches = []   # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, stem, fn, args, kwargs, record=True, hook=None):
        """Run fn(*args, **kwargs) as a traced call under `stem`."""
        stack = self._stack
        parent = stack[-1][1] if stack else None
        index = parent
        if record:
            index = len(self.spans)
            self.spans.append([stem, 0.0, 0.0, parent, self.op_id])
        frame = [0.0, index]
        stack.append(frame)
        result = exc = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            entry = self.stats.get(stem)
            if entry is None:
                entry = self.stats[stem] = [0, 0.0]
            entry[0] += 1
            entry[1] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if record:
                self.spans[index][1] = t0
                self.spans[index][2] = t1
            if hook is not None:
                hook(self, args, result, exc)

    def count(self, stem):
        entry = self.stats.get(stem)
        if entry is None:
            entry = self.stats[stem] = [0, 0.0]
        entry[0] += 1

    def snapshot(self):
        """Copy of the counters, for per-operation differences."""
        stats = {k: list(v) for k, v in self.stats.items()}
        return stats, dict(self.counters)

    # -- patching --------------------------------------------------------

    def _wrap(self, stem, fn, kind, hook):
        if kind == COUNT:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count(stem)
                return fn(*args, **kwargs)
        else:
            record = kind == SPAN

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(stem, fn, args, kwargs, record, hook)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        """Replace every binding of each probed callable with a wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for stem, module, cls, attr, kind, hook in PROBES:
                owner = sys.modules[module]
                if cls is not None:
                    owner = vars(owner)[cls]
                original = vars(owner)[attr]
                wrapper = self._wrap(stem, original, kind, hook)
                for where, name in bindings(original):
                    self._patches.append((where, name, original))
                    setattr(where, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Put back every binding replaced by `install`."""
        while self._patches:
            where, name, original = self._patches.pop()
            setattr(where, name, original)


def is_wrapped(obj):
    return getattr(obj, _MARK, False)
