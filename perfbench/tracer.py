"""Spans around addsel's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function by a wrapper under every
addsel module name that binds it (``population_gram`` lives in ``basis`` and
is bound again in ``geometry``), and each traced method on its class. Spans
are kept in memory per thread, with the caller as parent. A thread whose
stack is empty (a worker of the ``run_trials`` pool) takes the main thread's
innermost open span as parent, so trial spans hang under
``simulate.run_trials``.

`Tracer.metrics()` turns the spans into per-layer figures:
``<module>.<function>.s`` (summed duration of the calls),
``.self_s`` (duration minus the union of its children's intervals) and
``.calls``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

#: traced functions, by defining module
FUNCTIONS = {
    "cli": ("main",),
    "config": ("load_config",),
    "selection": ("select_exhaustive", "project_norm_sq"),
    "simulate": ("run_trials", "run_single_trial", "gen_model", "gen_response"),
    "basis": ("build_design_blocks", "population_gram", "full_block_gram"),
    "geometry": ("sup_norm_ratio", "phi_2qstar", "rho_from_gram", "min_angle_cos",
                 "epsilons_from_gram", "kappa_values"),
    "diagnostics": ("rip_constant", "event_E_check", "event_E_from_grams",
                    "event_A_check", "selection_error_bound"),
    "estimate": ("rate_experiment", "estimate_component", "component_risk"),
}

#: traced methods: span name -> (module, method name, class names or None for
#: every class of the module that defines the method itself)
METHODS = {
    "basis.DesignBlocks.gram": ("basis", "gram", ("DesignBlocks",)),
    "densities.sample": ("densities", "sample", None),
    "densities.pair_pdf": ("densities", "pair_pdf", None),
}


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._stacks = {}
        # one entry per span: [name, parent index or None, start, end]
        self.spans = []

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._stacks.get(threading.main_thread().ident)
        try:
            return main[-1] if main else None
        except IndexError:  # the main thread closed its span meanwhile
            return None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, self._parent(stack), 0.0, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = self.spans[index]
                span[2], span[3] = start, end

        return traced

    def install(self):
        """Patch every traced function and method; returns the span names."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "addsel" or key.startswith("addsel."))]
        names = []
        for short, funcs in FUNCTIONS.items():
            home = importlib.import_module(f"addsel.{short}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{short}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                names.append(f"{short}.{func}")
        for name, (short, method, classes) in METHODS.items():
            home = importlib.import_module(f"addsel.{short}")
            owners = [getattr(home, c) for c in classes] if classes else [
                v for v in vars(home).values()
                if isinstance(v, type) and v.__module__ == home.__name__
                and method in vars(v)]
            for owner in owners:
                setattr(owner, method, self.wrap(name, vars(owner)[method]))
            names.append(name)
        return names

    def metrics(self, names):
        """{name: {"s", "self_s", "calls"}} for every traced name, zero if never called."""
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
        children = {}
        for name, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += end - start - _covered(children.get(index, ()), start, end)
        return out


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
