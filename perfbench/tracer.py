"""In-memory span tracer that wraps supersle's public functions from outside.

Spans are recorded only around calls into the package's public functions;
private helpers (``_bmul``, ``_em_core``, ...) stay inside their caller's
self time.  A function is replaced in every ``supersle`` module that binds
it, so ``from supersle.walk import drift_generator`` in ``sde`` and the
``sde_mod.<fn>`` calls in ``cli`` are both seen.  Hot methods that would
drown in per-span cost are counted, not timed.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute path).  The cli commands are named after
# their subcommand.
SPANNED = {
    "sde.pathwise_convergence": ("supersle.sde", "pathwise_convergence"),
    "sde.BrownianPath.sample": ("supersle.sde", "BrownianPath.sample"),
    "sde.euler_maruyama": ("supersle.sde", "euler_maruyama"),
    "sde.closed_form_32": ("supersle.sde", "closed_form_32"),
    "sde.conservation_check_32": ("supersle.sde", "conservation_check_32"),
    "sde.loewner_flow": ("supersle.sde", "loewner_flow"),
    "sde.supertrace_hull": ("supersle.sde", "supertrace_hull"),
    "sde.write_superpath_csv": ("supersle.sde", "write_superpath_csv"),
    "sde.write_pgm": ("supersle.sde", "write_pgm"),
    "sde.write_json_report": ("supersle.sde", "write_json_report"),
    "sde.mc_martingale": ("supersle.sde", "mc_martingale"),
    "walk.drift_generator": ("supersle.walk", "drift_generator"),
    "walk.beta_element": ("supersle.walk", "beta_element"),
    "walk.match_singular": ("supersle.walk", "match_singular"),
    "ns_algebra.Projector.matrix": ("supersle.ns_algebra", "Projector.matrix"),
    "ns_algebra.pbw_words": ("supersle.ns_algebra", "pbw_words"),
    "ns_algebra.quotient_projection": ("supersle.ns_algebra",
                                       "quotient_projection"),
    "ns_algebra.is_singular": ("supersle.ns_algebra", "is_singular"),
    "ns_algebra.VermaModule.apply": ("supersle.ns_algebra",
                                     "VermaModule.apply"),
    "superfield.is_superconformal": ("supersle.superfield",
                                     "is_superconformal"),
    "cli.verify": ("supersle.cli", "cmd_verify"),
    "cli.sde": ("supersle.cli", "cmd_sde"),
    "cli.trace": ("supersle.cli", "cmd_trace"),
}

# Counter name -> (module, attribute path); ``GrassmannNumber.__init__``
# counts constructions.
COUNTED = {
    "grassmann.GrassmannNumber.calls": ("supersle.grassmann",
                                        "GrassmannNumber.__init__"),
    "grassmann.GrassmannNumber.__mul__.calls": ("supersle.grassmann",
                                                "GrassmannNumber.__mul__"),
    "ns_algebra.VermaModule.act_mode.calls": ("supersle.ns_algebra",
                                              "VermaModule.act_mode"),
}


class Tracer:
    """Collects spans (id, name, start, end, parent, run id) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTED}
        self._stack = []
        self._run_id = None
        self._next_id = 0

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        if self._run_id is None:  # outside an operation: oracle work
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self._run_id))

    def operation(self, run_id: str, fn, *args, **kwargs):
        """Root span of one workload operation; its id tags every child."""
        self._run_id = run_id
        try:
            return self.span("op." + run_id, fn, *args, **kwargs)
        finally:
            self._run_id = None

    # -- installation ----------------------------------------------------

    def install(self):
        for name, (mod, attr) in SPANNED.items():
            _replace(mod, attr, self._span_wrapper(name))
        for name, (mod, attr) in COUNTED.items():
            _replace(mod, attr, self._count_wrapper(name))

    def _span_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
            return wrapper
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._run_id is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


def _replace(module_name: str, attr: str, make):
    """Swap the named function for ``make(fn)`` wherever supersle binds it."""
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        # a method or classmethod: rebinding the class attribute reaches
        # every caller
        raw = owner.__dict__[leaf]
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(make(raw.__func__)))
        else:
            setattr(owner, leaf, make(raw))
        return
    fn = getattr(owner, leaf)
    wrapped = make(fn)
    for name, mod in list(sys.modules.items()):
        if name != "supersle" and not name.startswith("supersle."):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)


def summarize(spans) -> dict:
    """Per-name inclusive time ``.s``, self time ``.self_s`` and ``.calls``.

    Inclusive time counts only the outermost span of a name along each
    ancestry, so recursion is not double counted.  Self time is a span's
    duration minus the durations of its direct children, which run nested
    inside it on one thread.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, _name, t0, t1, parent, _run in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, name, t0, t1, parent, _run in spans:
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        anc = parent
        nested = False
        while anc is not None:
            if by_id[anc][1] == name:
                nested = True
                break
            anc = by_id[anc][4]
        if not nested:
            entry["s"] += t1 - t0
    return out
