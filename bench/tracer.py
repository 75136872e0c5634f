"""Per-layer spans and counters installed around simplexflow from outside.

The tracer replaces public functions at each module boundary with wrappers.
It patches every binding callers look up: a function imported by name into
another module (``ode`` imports ``iterate``) is replaced there too. Spans
of one CLI invocation share that invocation's id and stay in memory until
``metrics`` is called. Per-sample calls (``CesaroState.push`` and the
dynamics module's ``log_sum_exp``) are aggregated into counters instead of
being stored one by one.

A layer's self time is its span minus the union of its child spans, so
overlapping children from the sweep's worker threads are not subtracted
twice.
"""
from __future__ import annotations

import inspect
import sys
import threading
from collections import Counter
from time import perf_counter_ns

PACKAGE = "simplexflow"

# Analysis calls reported together as analysis.summary_s.
SUMMARY_CALLS = (
    "classify_regime", "detect_convergence", "persistence_report",
    "omega_limit_estimate", "phi_decay_stats", "lyapunov_phi", "sector_array",
)

SPANNED = {
    "dynamics": ("iterate",),
    "analysis": ("attach_observables", "estimate_gamma0", "sector_cycle_audit",
                 "sojourn_stats") + SUMMARY_CALLS,
    "ode": ("convergence_order", "reference_path", "euler_path"),
}


class Span:
    __slots__ = ("name", "inv", "parent", "t0", "t1", "children", "agg_ns", "attrs")

    def __init__(self, name, inv, parent):
        self.name = name
        self.inv = inv
        self.parent = parent
        self.t0 = perf_counter_ns()
        self.t1 = None
        self.children = []
        self.agg_ns = 0
        self.attrs = None

    @property
    def ns(self) -> int:
        return self.t1 - self.t0

    def self_ns(self) -> int:
        """Duration minus the part of it covered by child spans and aggregated calls."""
        covered, end = 0, None
        for c in sorted(self.children, key=lambda s: s.t0):
            lo = c.t0 if end is None else max(c.t0, end)
            if c.t1 > lo:
                covered += c.t1 - lo
            end = c.t1 if end is None else max(end, c.t1)
        return self.ns - covered - self.agg_ns


class Tracer:
    def __init__(self):
        self.roots: list[Span] = []
        self._root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _counter(self) -> Counter:
        c = getattr(self._local, "counter", None)
        if c is None:
            c = self._local.counter = Counter()
            with self._lock:
                self._counters.append(c)
        return c

    def invocation(self, inv_id: int) -> Span:
        """Open the root span of one CLI invocation; close it with ``end``."""
        span = Span("cli", inv_id, None)
        self._root = span
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = perf_counter_ns()
        self._stack().pop()
        self._root = None
        self.roots.append(span)

    def _spanned(self, name, fn, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = Span(name, parent.inv if parent else None, parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_per_call(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            c = tracer._counter()
            c[key] += 1
            c[key + "_ns"] += dt
            stack = tracer._stack()
            if stack:
                stack[-1].agg_ns += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._counter()[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        mods = {short: sys.modules[f"{PACKAGE}.{short}"] for short in ("dynamics", "analysis", "ode")}
        attrs = {"iterate": _iterate_attrs, "reference_path": _reference_attrs(mods["ode"].reference_path)}
        for short, names in SPANNED.items():
            for fn_name in names:
                original = getattr(mods[short], fn_name)
                self._replace_everywhere(
                    original, self._spanned(f"{short}.{fn_name}", original, attrs.get(fn_name)))
        # Only the dynamics binding: its calls are one per log step plus one per
        # firing of the cancellation-free branch.
        self._patch(mods["dynamics"], "log_sum_exp",
                    self._counted("log_sum_exp", mods["dynamics"].log_sum_exp))
        cesaro = mods["analysis"].CesaroState
        self._patch(cesaro, "push", self._timed_per_call("cesaro_push", cesaro.push))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals over every recorded invocation (seconds, counts)."""
        counts = Counter()
        for c in self._counters:
            counts.update(c)
        spans = []
        todo = list(self.roots)
        while todo:
            s = todo.pop()
            spans.append(s)
            todo.extend(s.children)

        def total(pred, f=lambda s: s.ns):
            return sum(f(s) for s in spans if pred(s))

        def named(n):
            return lambda s: s.name == n

        iterate = [s for s in spans if s.name == "dynamics.iterate"]
        # A call that raised has no attrs; the client counts it as failed.
        steps_linear = sum(s.attrs[0] for s in iterate if s.attrs)
        steps_log = sum(s.attrs[1] for s in iterate if s.attrs)
        iterate_self = total(named("dynamics.iterate"), Span.self_ns)
        pushes = counts["cesaro_push"]
        summary = {f"analysis.{n}" for n in SUMMARY_CALLS}
        cli_self = total(named("cli"), Span.self_ns)
        out = {
            "simplex.log_sum_exp_calls": counts["log_sum_exp"],
            "dynamics.iterate_calls": len(iterate),
            "dynamics.steps_linear": steps_linear,
            "dynamics.steps_log": steps_log,
            "dynamics.iterate_self_s": iterate_self / 1e9,
            "dynamics.ns_per_step": iterate_self / max(1, steps_linear + steps_log),
            "dynamics.cancel_free_fires": counts["log_sum_exp"] - steps_log,
            "analysis.observables_s": total(named("analysis.attach_observables")) / 1e9,
            "analysis.cesaro_pushes": pushes,
            "analysis.cesaro_s": counts["cesaro_push_ns"] / 1e9,
            "analysis.ns_per_push": counts["cesaro_push_ns"] / max(1, pushes),
            "analysis.gamma0_s": total(named("analysis.estimate_gamma0")) / 1e9,
            "analysis.gamma0_audits": sum(
                1 for s in spans if s.name == "analysis.sector_cycle_audit"
                and s.parent.name == "analysis.estimate_gamma0"),
            "analysis.audit_s": total(lambda s: s.name == "analysis.sector_cycle_audit"
                                      and s.parent.name == "cli") / 1e9,
            "analysis.sojourn_s": total(named("analysis.sojourn_stats")) / 1e9,
            "analysis.summary_s": total(lambda s: s.name in summary and s.parent.name == "cli") / 1e9,
            "ode.reference_s": total(named("ode.reference_path")) / 1e9,
            "ode.reference_steps": sum(s.attrs for s in spans
                                       if s.name == "ode.reference_path" and s.attrs),
            "ode.euler_self_s": total(named("ode.euler_path"), Span.self_ns) / 1e9,
            "cli.self_s": cli_self / 1e9,
        }
        return out


def _iterate_attrs(args, kwargs, traj):
    """(linear steps, log steps) of one iterate call, from the returned trajectory."""
    n = traj.n_steps
    switched = traj.log_domain_from
    log_steps = 0 if switched is None else n - switched
    return (n - log_steps, log_steps)


def _reference_attrs(reference_path):
    sig = inspect.signature(reference_path)

    def attrs(args, kwargs, path):
        bound = sig.bind(*args, **kwargs)
        return round(bound.arguments["horizon"] / bound.arguments["h"])

    return attrs
