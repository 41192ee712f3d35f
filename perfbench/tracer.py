"""Spans and counters around the public functions of each nformpde layer.

The tracer wraps functions from the outside: for every traced function it
replaces each binding of the original object in every loaded ``nformpde``
module (``auxiliary`` binds ``complex_hessian`` by name, ``cli`` binds
``solve_primary`` and so on), so a call is seen whichever name it goes
through.  ``lgmres`` is wrapped where ``solver`` and ``auxiliary`` bind it
and its operator is wrapped to count matvecs.  ``restore`` puts every
original back.  Spans stay in memory; ``layer_metrics`` reduces them.

Layer metrics cover the instance phase only (inputs built to checked
artifacts), except ``descriptors.realize.s`` and
``manufactured.forcing_from_hessian.s``, which cover set-up as well.
"""

import functools
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

# (span name, defining module, attribute)
FUNCTIONS = (
    ("grid.complex_hessian", "nformpde.grid", "complex_hessian"),
    ("grid.twisted_metric", "nformpde.grid", "twisted_metric"),
    ("grid.entropy_norm", "nformpde.grid", "entropy_norm"),
    ("hermlin.endomorphism_eigs", "nformpde.hermlin", "endomorphism_eigs"),
    ("hermlin.linearization", "nformpde.hermlin", "linearization"),
    ("hermlin.trace_reversal", "nformpde.hermlin", "trace_reversal"),
    ("symfun.evaluate", "nformpde.symfun", "evaluate"),
    ("symfun.gradient", "nformpde.symfun", "gradient"),
    ("solver.solve_primary", "nformpde.solver", "solve_primary"),
    ("solver.l1_bound_check", "nformpde.solver", "l1_bound_check"),
    ("auxiliary.build_chart", "nformpde.auxiliary", "build_chart"),
    ("auxiliary.solve_dirichlet_ma", "nformpde.auxiliary", "solve_dirichlet_ma"),
    ("auxiliary.run_localization", "nformpde.auxiliary", "run_localization"),
    ("manufactured.forcing_from_hessian", "nformpde.manufactured", "forcing_from_hessian"),
    ("schemas.validate", "nformpde.schemas", "validate"),
    ("cli.cmd_localize", "nformpde.cli", "cmd_localize"),
    ("cli.cmd_sweep", "nformpde.cli", "cmd_sweep"),
)
# methods of ExperimentDescriptor that realize the described inputs
REALIZE_METHODS = ("make_grid", "make_operator", "make_backgrounds", "make_forcing")
# modules binding lgmres, and the prefix of their Krylov spans
KRYLOV_SITES = {"nformpde.solver": "solver.krylov", "nformpde.auxiliary": "auxiliary.krylov"}
AUX = "nformpde.auxiliary"
# size of one call, in grid points
WORK = {"grid.complex_hessian": lambda args: np.size(args[0])}
# spans always counted, whatever the phase
SETUP_SPANS = ("descriptors.realize", "manufactured.forcing_from_hessian")


class Span:
    """One call: ``parent`` is the index of the enclosing span (-1 at top),
    ``outermost`` says no span of the same name encloses it, ``covers`` says
    no library span (any but ``cli.*``) encloses it and it is one itself."""

    __slots__ = ("name", "site", "phase", "parent", "start", "end", "outermost", "covers",
                 "work")

    def __init__(self, name, site, phase, parent, outermost, covers):
        self.name = name
        self.site = site
        self.phase = phase
        self.parent = parent
        self.start = self.end = 0.0
        self.outermost = outermost
        self.covers = covers
        self.work = 0

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, origin):
        return {"name": self.name, "site": self.site, "phase": self.phase,
                "parent": self.parent, "start": self.start - origin,
                "duration": self.duration, "work": self.work}


class Tracer:
    """Records spans for one single-threaded instance."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.tally = {"solver.iterations": 0, "auxiliary.iterations": 0,
                      "auxiliary.clamped_points": 0, "auxiliary.ball_points": 0,
                      "auxiliary.grid_points": 0}
        self._open_names = {}
        self._library_depth = 0
        self._stack = []
        self._patches = []

    # ---- spans ----

    def _open(self, name, site):
        depth = self._open_names.get(name, 0)
        library = not name.startswith("cli.")
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, site, self.phase, parent, depth == 0,
                    library and self._library_depth == 0)
        self._open_names[name] = depth + 1
        self._library_depth += library
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._open_names[span.name] -= 1
        self._library_depth -= not span.name.startswith("cli.")

    def wrap(self, name, site, fn, on_result=None, work=None):
        """``fn`` inside a span; ``work(args)`` sizes the call, ``on_result`` reads its result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, site)
            if work is not None:
                span.work = work(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ---- installation ----

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of the traced functions; returns the tracer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "nformpde" or key.startswith("nformpde."))]
        hooks = {
            "solver.solve_primary": self._on_primary,
            "auxiliary.solve_dirichlet_ma": self._on_auxiliary,
            "auxiliary.build_chart": self._on_chart,
        }
        for name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self.wrap(name, module.__name__, original, hooks.get(name),
                                            WORK.get(name))
                        self._patch(module, key, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is spla.lgmres:
                    prefix = KRYLOV_SITES[module.__name__]
                    self._patch(module, key, self._wrap_krylov(prefix, module.__name__, value))
        descriptor_class = sys.modules["nformpde.descriptors"].ExperimentDescriptor
        for attr in REALIZE_METHODS:
            original = getattr(descriptor_class, attr)
            self._patch(descriptor_class, attr,
                        self.wrap("descriptors.realize", "nformpde.descriptors", original))
        self._patch(np.linalg, "eigh", self._wrap_aux_eigh(np.linalg.eigh))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap_krylov(self, prefix, site, lgmres):
        tracer = self
        matvec_name = prefix + ".matvec"

        @functools.wraps(lgmres)
        def traced(A, b, *args, **kwargs):
            op = spla.aslinearoperator(A)

            def matvec(x):
                span = tracer._open(matvec_name, site)
                try:
                    return op.matvec(x)
                finally:
                    tracer._close(span)

            counted = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            span = tracer._open(prefix, site)
            try:
                return lgmres(counted, b, *args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_aux_eigh(self, eigh):
        """Count eigendecompositions called from auxiliary: its residual evaluations."""
        tracer = self

        @functools.wraps(eigh)
        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != AUX:
                return eigh(*args, **kwargs)
            span = tracer._open("auxiliary.residual_eval", AUX)
            try:
                return eigh(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    # ---- result hooks ----

    def _on_primary(self, solution):
        self.tally["solver.iterations"] += solution.iterations

    def _on_auxiliary(self, solution):
        self.tally["auxiliary.iterations"] += solution.iterations
        self.tally["auxiliary.clamped_points"] += int(sum(solution.clamp_history))

    def _on_chart(self, chart):
        self.tally["auxiliary.ball_points"] += chart.num_interior
        self.tally["auxiliary.grid_points"] += chart.grid.num_points

    # ---- reductions ----

    def _select(self, name, site=None, any_phase=False):
        return [s for s in self.spans
                if s.name == name and (site is None or s.site == site)
                and (any_phase or s.phase == "run")]

    def calls(self, name, site=None):
        return len(self._select(name, site))

    def seconds(self, name):
        any_phase = name in SETUP_SPANS
        return float(sum(s.duration for s in self._select(name, any_phase=any_phase)
                         if s.outermost))

    def span_dicts(self):
        origin = self.spans[0].start if self.spans else 0.0
        return [span.to_dict(origin) for span in self.spans]

    def covered_seconds(self):
        return float(sum(s.duration for s in self.spans if s.phase == "run" and s.covers))

    def invariants(self):
        """Count identities that hold when every call was seen; returns failures."""
        failures = []
        primary_hessians = sum(1 for s in self._select("grid.complex_hessian") if s.site != AUX)
        expected = (self.calls("solver.krylov.matvec") + self.calls("grid.twisted_metric")
                    + self.calls("solver.l1_bound_check"))
        if primary_hessians != expected:
            failures.append("complex_hessian calls %d != solver matvecs + twisted_metric "
                            "+ l1_bound_check calls = %d" % (primary_hessians, expected))
        aux_hessians = self.calls("grid.complex_hessian", AUX)
        aux_expected = self.calls("auxiliary.krylov.matvec") + self.calls("auxiliary.residual_eval")
        if aux_hessians != aux_expected:
            failures.append("auxiliary complex_hessian calls %d != auxiliary matvecs + "
                            "residual evaluations = %d" % (aux_hessians, aux_expected))
        for prefix, tally in (("solver", "solver.iterations"), ("auxiliary", "auxiliary.iterations")):
            steps = self.calls(prefix + ".krylov")
            if steps != self.tally[tally]:
                failures.append("%s Krylov solves %d != reported Newton iterations %d"
                                % (prefix, steps, self.tally[tally]))
        return failures


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced instance, keyed by metric name."""
    t = tracer
    m = {}
    for name in ("grid.complex_hessian", "grid.twisted_metric", "grid.entropy_norm",
                 "hermlin.endomorphism_eigs", "hermlin.linearization",
                 "hermlin.trace_reversal", "auxiliary.solve_dirichlet_ma", "schemas.validate"):
        m[name + ".calls"] = t.calls(name)
        m[name + ".s"] = t.seconds(name)
    for name in ("symfun.evaluate", "symfun.gradient", "solver.solve_primary",
                 "solver.l1_bound_check", "auxiliary.build_chart", "solver.krylov",
                 "auxiliary.krylov", "descriptors.realize",
                 "manufactured.forcing_from_hessian"):
        m[name + ".s"] = t.seconds(name)

    hessian_s = m["grid.complex_hessian.s"]
    points = sum(span.work for span in t._select("grid.complex_hessian"))
    m["grid.complex_hessian.mpts"] = points / 1e6 / hessian_s if hessian_s > 0 else 0.0

    steps = t.calls("solver.krylov")
    matvecs = t.calls("solver.krylov.matvec")
    m["solver.newton_steps"] = steps
    m["solver.krylov.matvecs"] = matvecs
    m["solver.krylov.matvecs_per_step"] = matvecs / steps if steps else 0.0
    # each solve evaluates its start once, then per step one coefficient
    # field and one twisted metric per line-search trial
    trials = (t.calls("grid.twisted_metric") - t.calls("hermlin.linearization")
              - t.calls("solver.solve_primary"))
    m["solver.line_search.trials"] = trials
    m["solver.line_search.accept_frac"] = steps / trials if trials else 0.0

    m["auxiliary.newton_steps"] = t.calls("auxiliary.krylov")
    m["auxiliary.krylov.matvecs"] = t.calls("auxiliary.krylov.matvec")
    m["auxiliary.residual_evals"] = t.calls("auxiliary.residual_eval")
    m["auxiliary.clamped_points"] = t.tally["auxiliary.clamped_points"]
    grid_points = t.tally["auxiliary.grid_points"]
    m["auxiliary.hessian_useful_frac"] = (
        t.tally["auxiliary.ball_points"] / grid_points if grid_points else 0.0)

    m["trace.coverage_frac"] = t.covered_seconds() / wall_s if wall_s > 0 else 0.0
    return m

