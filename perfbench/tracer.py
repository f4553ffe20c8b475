"""Spans around octo_cfs's public functions, recorded from outside the program.

`instrument` wraps every public function and public method defined in the layer
modules below and rebinds every `octo_cfs.*` module attribute that refers to
one, including names taken with `from .lattice import ...` and the handler
table of the CLI. A call from one wrapped function to another therefore
becomes a child span, for example `cfs.validate_point` inside
`lattice.local_correlation`. `gammas` is not wrapped: its time is self time
of its caller.

Spans are folded into per-name totals as they close (calls, total and self
seconds, failures) plus call counts per (parent, child) pair, so memory stays
flat however many calls a workload makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

LAYERS = ("cli", "octonion", "mult_algebra", "witt", "cfs", "minimize", "lattice", "majorana", "potentials")


class Tracer:
    def __init__(self):
        self.stack = []  # one [child seconds, name] entry per open span
        self.stats = {}  # name -> [calls, total_s, self_s, failed]
        self.edges = {}  # (parent name, name) -> calls
        self.values = {"cfs.validate_point_max_f": 0, "lattice.kernel_bytes": 0, "lattice.container_bytes": 0}
        self._observers = {
            "cfs.validate_point": self._observe_point,
            "lattice.sea_kernel": self._observe_kernel,
            "lattice.save_kernels": self._observe_container,
            "minimize.make_family": self._observe_family,
        }

    def wrap(self, fn, name):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][1] if self.stack else None
            frame = [0.0, name]
            self.stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                s = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[0]
                s[3] += not ok
                self.edges[(parent, name)] = self.edges.get((parent, name), 0) + 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters that need a look at arguments or results

    def _observe_point(self, args, result):
        f = result.matrix.shape[0]
        self.values["cfs.validate_point_max_f"] = max(self.values["cfs.validate_point_max_f"], f)

    def _observe_kernel(self, args, result):
        self.values["lattice.kernel_bytes"] += result.rel.nbytes

    def _observe_container(self, args, result):
        self.values["lattice.container_bytes"] += os.path.getsize(args[0])

    def _observe_family(self, args, result):
        family = result[0]
        family.point_fn = self.wrap(family.point_fn, "minimize.point_fn")

    # -- aggregation

    def _sum(self, prefix, column):
        return sum(s[column] for name, s in self.stats.items() if name.startswith(prefix + "."))

    def _calls(self, name):
        return self.stats.get(name, [0])[0]

    def _total(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""
        calls, total = self._calls, self._total
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self._sum(layer, 2), "s")
            m[f"{layer}.failed"] = (self._sum(layer, 3), "count")
        m["octonion.calls"] = (self._sum("octonion", 0), "count")
        m["mult_algebra.span_dimension_s"] = (total("mult_algebra.span_dimension"), "s")
        n_spec = calls("cfs.product_spectrum")
        m["cfs.product_spectrum_calls"] = (n_spec, "count")
        m["cfs.product_spectrum_us"] = (1e6 * total("cfs.product_spectrum") / n_spec if n_spec else 0.0, "us")
        m["cfs.lagrangian_calls"] = (calls("cfs.lagrangian"), "count")
        for fn in ("action", "ell", "measure_from_json", "completeness_check", "spin_connection", "validate_point"):
            m[f"cfs.{fn}_s"] = (total(f"cfs.{fn}"), "s")
        m["cfs.validate_point_max_f"] = (self.values["cfs.validate_point_max_f"], "rows")
        evals = calls("minimize.point_fn")
        m["minimize.minimize_s"] = (total("minimize.minimize"), "s")
        m["minimize.objective_evals"] = (evals, "count")
        m["minimize.action_calls"] = (self.edges.get(("minimize.minimize", "cfs.action"), 0), "count")
        m["minimize.ell_calls"] = (self.edges.get(("minimize.minimize", "cfs.ell"), 0), "count")
        m["minimize.s_per_eval"] = (total("minimize.minimize") / evals if evals else 0.0, "s")
        for fn in ("sea_kernel", "save_kernels", "mode_onshell_residuals", "load_kernels", "dirac_residual",
                   "occupied_modes", "local_correlation", "left_algebra_action"):
            m[f"lattice.{fn}_s"] = (total(f"lattice.{fn}"), "s")
        m["lattice.hermiticity_residual_s"] = (total("lattice.SectorKernel.hermiticity_residual"), "s")
        m["lattice.sea_kernel_calls"] = (calls("lattice.sea_kernel"), "count")
        m["lattice.kernel_bytes"] = (self.values["lattice.kernel_bytes"], "B")
        m["lattice.container_bytes"] = (self.values["lattice.container_bytes"], "B")
        return m

    def top(self, count=12):
        """The names with the most self time: (name, calls, total_s, self_s, failed)."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:count]
        return [(name, *s) for name, s in rows]


def instrument(tracer: Tracer):
    """Wrap the layers' public functions and methods; return switch(on) that binds every reference.

    switch(True) points each module attribute, class attribute and dict entry
    that refers to a wrapped function at its wrapper; switch(False) restores
    the original.
    """
    import octo_cfs

    modules = [importlib.import_module(f"octo_cfs.{info.name}") for info in pkgutil.iter_modules(octo_cfs.__path__)]
    wrapped = {}
    sites = []  # (namespace, key, original, wrapper)
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        wrapper = tracer.wrap(meth, f"{layer}.{obj.__name__}.{meth_name}")
                        sites.append((obj, meth_name, meth, wrapper))
    for mod in modules + [octo_cfs]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                sites.append((mod, attr, obj, wrapped[obj]))
            elif isinstance(obj, dict):
                sites += [(obj, key, v, wrapped[v]) for key, v in obj.items() if inspect.isfunction(v) and v in wrapped]

    def switch(on: bool) -> None:
        for namespace, key, original, wrapper in sites:
            value = wrapper if on else original
            if isinstance(namespace, dict):
                namespace[key] = value
            else:
                setattr(namespace, key, value)

    return switch
