"""Span tracer that wraps the public callables of each tubescore layer.

A layer is one module of the package (``geometry``, ``densities``,
``targets``, ``oracle``, ``estimators``, ``langevin``, ``experiments``,
``reporting``, ``cli``).  While a :class:`Tracer` is installed, every public
function and method of those modules is replaced by a wrapper that records a
span ``[name, layer, start, end, parent]`` and updates counters at that
boundary.  Module-level functions are replaced in every ``tubescore`` module
that bound them by name, so ``experiments.corrupt`` is traced as well as
``targets.corrupt``.  Uninstalling puts every original object back.

Spans stay in memory; :meth:`Tracer.metrics` reduces them to the per-layer
figures the benchmark reports.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("geometry", "densities", "targets", "oracle", "estimators",
          "langevin", "experiments", "reporting", "cli")

# Constructors are traced only where building the object is real work.
TRACED_INITS = {"RBOracle", "FiberPosterior", "VonMisesFisher",
                "ProductVonMises", "IsotropicGaussian", "Uniform",
                "SphereTMarginal"}
DENSITY_INITS = TRACED_INITS - {"RBOracle", "FiberPosterior"}
DENSITY_SAMPLERS = ("sample_coords", "sample_coords_seeded", "sample_latent")

NAME, LAYER, START, END, PARENT = range(5)


def layer_modules():
    """(layer, module) pairs; geometry is a package of several modules."""
    pkg = "tubescore"
    out = []
    for layer in LAYERS:
        if layer == "geometry":
            for sub in ("base", "curvature", "plane", "quadrature", "sphere",
                        "torus"):
                out.append((layer, importlib.import_module(
                    f"{pkg}.geometry.{sub}")))
        else:
            out.append((layer, importlib.import_module(f"{pkg}.{layer}")))
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span[START]
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def busy_time(spans, pred) -> float:
    """Total duration of spans matching ``pred`` that are not nested inside
    another matching span, i.e. the time some matching call was running."""
    inside = [False] * len(spans)
    total = 0.0
    for i, span in enumerate(spans):
        p = span[PARENT]
        inside[i] = p is not None and (inside[p] or pred(spans[p]))
        if pred(span) and not inside[i]:
            total += span[END] - span[START]
    return total


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


class Tracer:
    """Records spans and counters at every public layer boundary."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._oracles: dict[int, dict] = {}
        self._oracle_serial: dict[int, int] = {}

    # ---- wrapping ------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` wrapped so each call records one span."""
        tracer = self
        hook = _HOOKS.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            span = [name, layer, time.perf_counter(), None,
                    stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                tracer.counts[f"raised:{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, span, args, kwargs, result, error)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public callable of every layer."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = layer_modules()
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "tubescore" or n.startswith("tubescore.")]
        for layer, module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self.wrap(obj, f"{layer}.{attr}", layer)
                    # rebind in every module that imported it by name
                    for mod in packages:
                        for key, val in list(vars(mod).items()):
                            if val is obj:
                                self._patch(mod, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and cls.__name__ in TRACED_INITS)
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, name, layer))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr,
                            classmethod(self.wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr,
                            staticmethod(self.wrap(raw.__func__, name, layer)))

    def uninstall(self) -> None:
        """Put back every original object, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- reduction -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures from the recorded spans and counters."""
        spans, c = self.spans, self.counts
        selfs = self_times(spans)
        layer_self = Counter()
        for span, s in zip(spans, selfs):
            layer_self[span[LAYER]] += s

        def busy(pred):
            return busy_time(spans, pred)

        def named(*names):
            wanted = set(names)
            return lambda s: s[NAME] in wanted

        def layer(name):
            return lambda s: s[LAYER] == name

        oracles = list(self._oracles.values())
        rows = sum(o["rows"] for o in oracles)
        distinct = sum(len(o["distinct"]) for o in oracles)
        later_rows = sum(o["later_rows"] for o in oracles)
        later_s = sum(o["later_s"] for o in oracles)
        firsts = [o["first_s"] for o in oracles if o["first_s"] is not None]
        node_rows = sum(o["rows"] for o in oracles if o["nodes"])
        nodes = sum(o["nodes"] * o["rows"] for o in oracles if o["nodes"])

        chains_busy = busy(named("langevin.run_chains"))
        local_avg = named("estimators.local_average")
        exp = lambda s: s[NAME].endswith(".exp_batch")  # noqa: E731
        density_init = named(*(f"densities.{cls}.__init__"
                               for cls in DENSITY_INITS))
        la_calls = sum(1 for s in spans if local_avg(s))
        return {
            "oracle.busy_s": busy(layer("oracle")),
            "oracle.queries": rows,
            "oracle.distinct_share": distinct / rows if rows else 0.0,
            "oracle.query_us": 1e6 * later_s / later_rows if later_rows else 0.0,
            "oracle.first_call_s": sum(firsts) / len(firsts) if firsts else 0.0,
            "oracle.instances": c["oracle.instances"],
            "oracle.nodes_per_query": nodes / node_rows if node_rows else 0.0,
            "oracle.fiber_posterior_s": busy(
                lambda s: s[NAME].startswith("oracle.FiberPosterior.")),
            "targets.busy_s": busy(layer("targets")),
            "targets.draws": c["targets.draws"],
            "targets.draws_per_s": (c["targets.draws"]
                                    / busy(named("targets.corrupt"))
                                    if c["targets.draws"] else 0.0),
            "targets.outside_share": (c["targets.outside"] / c["targets.draws"]
                                      if c["targets.draws"] else 0.0),
            "estimators.local_average_calls": la_calls,
            "estimators.local_average_us": (1e6 * busy(local_avg) / la_calls
                                            if la_calls else 0.0),
            "estimators.widened": c[
                "raised:estimators.local_average:EmptyWindow"],
            "estimators.self_s": layer_self["estimators"],
            "langevin.chain_steps": c["langevin.chain_steps"],
            "langevin.chain_steps_per_s": (c["langevin.chain_steps"]
                                           / chains_busy if chains_busy
                                           else 0.0),
            "langevin.busy_s": busy(layer("langevin")),
            "geometry.exp_calls": sum(1 for s in spans if exp(s)),
            "geometry.exp_busy_s": busy(exp),
            "geometry.transport_rows": c["geometry.transport_rows"],
            "geometry.transport_busy_s": busy(
                lambda s: s[NAME].endswith(".transport_to_batch")),
            "geometry.project_rows": c["geometry.project_rows"],
            "densities.inits": sum(
                1 for s in spans if density_init(s)
                and (s[PARENT] is None or not density_init(spans[s[PARENT]]))),
            "densities.init_s": busy(density_init),
            "densities.sample_busy_s": busy(
                lambda s: s[LAYER] == "densities"
                and s[NAME].rsplit(".", 1)[1] in DENSITY_SAMPLERS),
            "experiments.self_s": layer_self["experiments"],
            "cli.self_s": layer_self["cli"],
            "reporting.render_s": busy(named("reporting.format_json",
                                             "reporting.format_csv")),
            "reporting.bytes": c["reporting.bytes"],
        }


# ---- counters taken at particular boundaries ------------------------------
# Each hook runs after its span has closed, so its own cost is not charged
# to the layer it measures.


def _oracle_init(tracer, span, args, kwargs, result, error):
    tracer.counts["oracle.instances"] += 1
    tracer._oracle_serial[id(args[0])] = tracer.counts["oracle.instances"]


def _oracle_query(tracer, span, args, kwargs, result, error):
    # a refused call answered no rows; its time stays in oracle.busy_s only
    if error is not None:
        return
    oracle, queries = args[0], _arg(args, kwargs, 1, "queries")
    serial = tracer._oracle_serial.get(id(oracle))
    state = tracer._oracles.setdefault(serial, {
        "rows": 0, "distinct": set(), "first_s": None, "later_s": 0.0,
        "later_rows": 0, "nodes": 0})
    rows = np.ascontiguousarray(np.asarray(queries, dtype=float))
    seconds = span[END] - span[START]
    state["rows"] += len(rows)
    state["distinct"].update(map(bytes, rows))
    if state["first_s"] is None:
        state["first_s"] = seconds
    else:
        state["later_s"] += seconds
        state["later_rows"] += len(rows)
    report = getattr(oracle, "convergence_report", None)
    if report and not state["nodes"]:
        from tubescore import oracle as oracle_mod
        count = getattr(oracle_mod.grid_node_count, "__wrapped__",
                        oracle_mod.grid_node_count)
        state["nodes"] = count(oracle.manifold, report["resolution"])


def _corrupt(tracer, span, args, kwargs, result, error):
    if result is not None:
        tracer.counts["targets.draws"] += len(result)
        tracer.counts["targets.outside"] += result.n_outside


def _run_chains(tracer, span, args, kwargs, result, error):
    if error is None:
        config = _arg(args, kwargs, 2, "config")
        chains = _arg(args, kwargs, 3, "n_chains", 1)
        tracer.counts["langevin.chain_steps"] += chains * config.n_steps


def _rows_counter(key, position, arg_name):
    def hook(tracer, span, args, kwargs, result, error):
        tracer.counts[key] += len(_arg(args, kwargs, position, arg_name))
    return hook


def _rendered(tracer, span, args, kwargs, result, error):
    if result is not None:
        tracer.counts["reporting.bytes"] += len(result.encode("utf-8"))


_HOOKS = {"RBOracle.__init__": _oracle_init,
          "RBOracle.target_coords": _oracle_query,
          "corrupt": _corrupt,
          "run_chains": _run_chains,
          "format_json": _rendered,
          "format_csv": _rendered}
for _cls in ("Sphere", "FlatTorus", "AffinePlane"):
    _HOOKS[f"{_cls}.transport_to_batch"] = _rows_counter(
        "geometry.transport_rows", 1, "p")
    _HOOKS[f"{_cls}.project_batch"] = _rows_counter(
        "geometry.project_rows", 1, "x")
