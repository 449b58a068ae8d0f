"""Spans around the package's layer entry points, recorded from outside it.

Each hook replaces one function or method by a wrapper that records a span
(name, start, end, parent, note) in memory.  A function defined in the
package is replaced at every place it is looked up: the defining module and
every other loaded `gelfand` module that imported it by name (so
`cli.trace_branch`, `gelfand.g_of` and the deferred `from .branch import
g_of` inside `meanfield` all hit the wrapper).  A foreign function such as
`scipy.sparse.linalg.splu` is wrapped only at the one module named, so
`meanfield.splu` counts the solver's factorizations and not the Dirichlet
set-up in `fem`.  A hook whose target no longer exists is reported absent,
and so is every metric computed from its spans.

Nothing is installed unless a traced run asks for it, and `uninstall`
restores every replaced attribute.
"""

from __future__ import annotations

import functools
import statistics
import sys
from importlib import import_module
from types import ModuleType


# A note is taken from the call's arguments and from what it returned or
# raised.  None means the note's source no longer exists (the package's
# layout changed), and the metric summing it is then reported absent.

def _iterations(args, result):
    if isinstance(result, BaseException):   # NoConvergence carries its count
        return int(getattr(result, "iterations", None) or 0)
    return int(result.iterations)


def _segment_pairs(args, result):
    pts, a = args[0], args[1]
    return len(pts) * len(a)


def _quad_points(args, result):
    blocks = getattr(args[0], "blocks", None)   # None: layout changed, metric absent
    return None if blocks is None else sum(int(b.w.size) for b in blocks)


# (span name, module, attribute path, note taken from the call)
HOOKS = (
    ("geometry.build_mesh", "gelfand.geometry", "build_mesh", None),
    ("geometry.point_segment_distance", "gelfand.geometry",
     "_point_segment_distance", _segment_pairs),
    ("fem.assemble_mass", "gelfand.fem", "Quadrature.assemble_mass", _quad_points),
    ("fem.assemble_load", "gelfand.fem", "Quadrature.assemble_load", _quad_points),
    ("fem.dual_norm", "gelfand.fem", "DirichletSolver.dual_norm", None),
    ("meanfield.problem_init", "gelfand.meanfield", "MeanFieldProblem.__init__", None),
    ("meanfield.newton", "gelfand.meanfield", "MeanFieldProblem._newton", _iterations),
    ("meanfield.newton", "gelfand.meanfield",
     "MeanFieldProblem._lp_newton_negative", _iterations),
    ("meanfield.load", "gelfand.meanfield", "MeanFieldProblem._load", None),
    ("meanfield.splu", "gelfand.meanfield", "splu", None),
    ("meanfield.lin_solve", "gelfand.meanfield", "Linearization.solve", None),
    ("spectrum.weighted_eigs", "gelfand.spectrum", "weighted_eigs", None),
    ("spectrum.tau1", "gelfand.spectrum", "standard_tau1", None),
    ("spectrum.poincare", "gelfand.spectrum", "poincare_constant", None),
    ("spectrum.eigsh", "gelfand.spectrum", "eigsh", None),
    ("branch.trace", "gelfand.branch", "trace_branch", None),
    ("branch.row", "gelfand.branch", "_branch_point", None),
    ("branch.g_of", "gelfand.branch", "g_of", None),
    ("branch.find_fold", "gelfand.branch", "find_fold", None),
    ("branch.emit", "gelfand.branch", "emit_diagram", None),
    ("freeenergy.minimize", "gelfand.freeenergy", "minimize_free_energy", _iterations),
    ("freeenergy.verify", "gelfand.freeenergy", "verify_energy_bound", None),
    ("freeenergy.collar_density", "gelfand.freeenergy", "collar_density", None),
)

# metric -> unit; the values are computed in `Recorder.layer_metrics`
LAYER_METRICS = {
    "geometry.build_mesh_s": "s",
    "meanfield.problem_init_s": "s",
    "geometry.collar_density_s": "s",
    "geometry.collar_pairs": "count",
    "fem.assemble_mass_calls": "count",
    "fem.assemble_mass_s": "s",
    "fem.assemble_load_calls": "count",
    "fem.assemble_load_s": "s",
    "fem.quad_points": "count",
    "meanfield.newton_solves": "count",
    "meanfield.newton_iters": "count",
    "meanfield.newton_s": "s",
    "meanfield.residual_evals": "count",
    "meanfield.factorizations": "count",
    "meanfield.factor_s": "s",
    "meanfield.lin_solves": "count",
    "meanfield.lin_solve_s": "s",
    "spectrum.calls": "count",
    "spectrum.sigma_s": "s",
    "spectrum.tau1_s": "s",
    "spectrum.poincare_s": "s",
    "spectrum.eigsh_calls": "count",
    "spectrum.tau1_lin_solves": "count",
    "branch.rows": "count",
    "branch.row_diag_ms_p50": "ms",
    "branch.row_diag_ms_p80": "ms",
    "branch.g_of_calls": "count",
    "branch.g_of_s": "s",
    "branch.find_fold_s": "s",
    "branch.fold_newton_solves": "count",
    "branch.emit_s": "s",
    "freeenergy.minimize_s": "s",
    "freeenergy.fixed_point_iters": "count",
    "freeenergy.f_evals": "count",
    "freeenergy.verify_s": "s",
}

# counts that do not depend on the machine; two traced runs of one seed must
# agree on each of them exactly
EXACT_COUNTS = tuple(m for m, unit in LAYER_METRICS.items() if unit == "count")

# layer metric -> workloads on which it must be non-zero; it must be zero on
# every workload not named
PREDICTED_WORK = {
    **{m: ("branch_disk", "mu_sweep", "freeenergy_chain") for m in (
        "geometry.build_mesh_s", "meanfield.problem_init_s",
        # the free-energy fixed point and the collar density assemble their
        # loads through the same quadrature, but never a mass matrix
        "fem.assemble_load_calls", "fem.assemble_load_s", "fem.quad_points")},
    "geometry.collar_density_s": ("freeenergy_chain",),
    "geometry.collar_pairs": ("freeenergy_chain",),
    **{m: ("branch_disk", "mu_sweep") for m in (
        "fem.assemble_mass_calls", "fem.assemble_mass_s",
        "meanfield.newton_solves", "meanfield.newton_iters", "meanfield.newton_s",
        "meanfield.residual_evals", "meanfield.factorizations", "meanfield.factor_s",
        "meanfield.lin_solves", "meanfield.lin_solve_s",
        "branch.g_of_calls", "branch.g_of_s")},
    **{m: ("branch_disk",) for m in (
        "spectrum.calls", "spectrum.sigma_s", "spectrum.tau1_s", "spectrum.poincare_s",
        "spectrum.eigsh_calls", "spectrum.tau1_lin_solves",
        "branch.rows", "branch.row_diag_ms_p50", "branch.row_diag_ms_p80",
        "branch.find_fold_s", "branch.fold_newton_solves", "branch.emit_s")},
    **{m: ("freeenergy_chain",) for m in (
        "freeenergy.minimize_s", "freeenergy.fixed_point_iters",
        "freeenergy.f_evals", "freeenergy.verify_s")},
}


class _Absent(Exception):
    """A metric needs a span whose hook is not installed."""


def _gelfand_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gelfand" or name.startswith("gelfand."))]


class Recorder:
    """In-memory span store plus the hooks that feed it."""

    def __init__(self, now):
        self.now = now           # the clock every span is timed with
        self.spans = []          # [name, start, end, parent, note]
        self._stack = []
        self._restore = []       # (owner, attribute, original)
        self.sites = {}          # span name -> replaced attribute paths
        self.absent_hooks = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, note):
        spans, stack, now = self.spans, self._stack, self.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                result = e
                raise
            finally:
                span[2] = now()
                stack.pop()
                if note is not None:      # a call that raised is noted too
                    span[4] = note(args, result)
            return result
        return wrapper

    def op(self):
        """Open a root span around one workload operation.

        Returns a closer that ends the span and gives the index range of the
        operation's spans, for `layer_metrics`.
        """
        first = len(self.spans)
        span = ["op", self.now(), 0.0, -1, None]
        self._stack.append(first)
        self.spans.append(span)

        def close():
            span[2] = self.now()
            self._stack.pop()
            return first, len(self.spans)
        return close

    # -- installation -------------------------------------------------------

    def install(self):
        self.sites, self.absent_hooks = {}, []
        for name, module_name, path, note in HOOKS:
            try:
                module = import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent_hooks.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, note)
            sites = [(owner, attr)]
            if not owner_path and getattr(original, "__module__", "") == module_name:
                # a package function: replace it wherever it was imported by name
                sites = [(m, a) for m in _gelfand_modules()
                         for a, v in list(vars(m).items()) if v is original]
            for site, attr_name in sites:
                self._restore.append((site, attr_name, original))
                setattr(site, attr_name, wrapper)
                label = (site.__name__ if isinstance(site, ModuleType)
                         else f"{site.__module__}.{site.__qualname__}") + "." + attr_name
                self.sites.setdefault(name, []).append(label)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- per-operation metrics ----------------------------------------------

    def layer_metrics(self, span_range):
        """Layer metrics of one operation, from its `op()` index range."""
        spans = self.spans
        by_name = {}
        for i in range(*span_range):
            by_name.setdefault(spans[i][0], []).append(i)

        def has_ancestor(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        def of(name, under=None, outermost=False):
            if name not in self.sites or (under is not None and under not in self.sites):
                raise _Absent
            return [i for i in by_name.get(name, ())
                    if (under is None or has_ancestor(i, under))
                    and not (outermost and has_ancestor(i, name))]

        def dur(idx):
            return sum(spans[i][2] - spans[i][1] for i in idx)

        def notes(idx):
            vals = [spans[i][4] for i in idx]
            return None if None in vals else sum(vals)

        def newton():
            return of("meanfield.newton", outermost=True)

        def rows_ms():
            return sorted(1e3 * dur([i]) for i in of("branch.row"))

        def sigma_s():
            eigs = of("spectrum.weighted_eigs")
            children = (of("spectrum.tau1", under="spectrum.weighted_eigs")
                        + of("spectrum.poincare", under="spectrum.weighted_eigs"))
            return dur(eigs) - dur(children)

        def segs():
            return of("geometry.point_segment_distance", under="freeenergy.collar_density")

        compute = {
            "geometry.build_mesh_s": lambda: dur(of("geometry.build_mesh", outermost=True)),
            "meanfield.problem_init_s": lambda: dur(of("meanfield.problem_init")),
            "geometry.collar_density_s": lambda: dur(segs()),
            "geometry.collar_pairs": lambda: notes(segs()),
            "fem.assemble_mass_calls": lambda: len(of("fem.assemble_mass")),
            "fem.assemble_mass_s": lambda: dur(of("fem.assemble_mass")),
            "fem.assemble_load_calls": lambda: len(of("fem.assemble_load")),
            "fem.assemble_load_s": lambda: dur(of("fem.assemble_load")),
            "fem.quad_points": lambda: notes(of("fem.assemble_mass") + of("fem.assemble_load")),
            "meanfield.newton_solves": lambda: len(newton()),
            "meanfield.newton_iters": lambda: notes(newton()),
            "meanfield.newton_s": lambda: dur(newton()),
            "meanfield.residual_evals":
                lambda: len(of("fem.dual_norm", under="meanfield.newton")),
            "meanfield.factorizations": lambda: len(of("meanfield.splu")),
            "meanfield.factor_s": lambda: dur(of("meanfield.splu")),
            "meanfield.lin_solves": lambda: len(of("meanfield.lin_solve")),
            "meanfield.lin_solve_s": lambda: dur(of("meanfield.lin_solve")),
            "spectrum.calls": lambda: len(of("spectrum.weighted_eigs")),
            "spectrum.sigma_s": sigma_s,
            "spectrum.tau1_s": lambda: dur(of("spectrum.tau1")),
            "spectrum.poincare_s": lambda: dur(of("spectrum.poincare")),
            "spectrum.eigsh_calls": lambda: len(of("spectrum.eigsh")),
            "spectrum.tau1_lin_solves":
                lambda: len(of("meanfield.lin_solve", under="spectrum.tau1")),
            "branch.rows": lambda: len(rows_ms()),
            "branch.row_diag_ms_p50": lambda: _percentile(rows_ms(), 50),
            "branch.row_diag_ms_p80": lambda: _percentile(rows_ms(), 80),
            "branch.g_of_calls": lambda: len(of("branch.g_of")),
            "branch.g_of_s": lambda: dur(of("branch.g_of")),
            "branch.find_fold_s": lambda: dur(of("branch.find_fold")),
            "branch.fold_newton_solves":
                lambda: len(of("meanfield.newton", under="branch.find_fold", outermost=True)),
            "branch.emit_s": lambda: dur(of("branch.emit")),
            "freeenergy.minimize_s": lambda: dur(of("freeenergy.minimize")),
            "freeenergy.fixed_point_iters": lambda: notes(of("freeenergy.minimize")),
            "freeenergy.f_evals":
                lambda: len(of("meanfield.load", under="freeenergy.minimize")),
            "freeenergy.verify_s": lambda: dur(of("freeenergy.verify")),
        }
        values = {}
        for metric in LAYER_METRICS:
            try:
                values[metric] = compute[metric]()
            except _Absent:
                values[metric] = None
        return values


def _percentile(sorted_vals, q):
    """q-th percentile by linear interpolation; 0 for no samples."""
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    return statistics.quantiles(sorted_vals, n=100, method="inclusive")[q - 1]
