"""Per-layer tracing of the microlaser package from outside.

The tracer replaces each public function of the traced modules with a
wrapper that records a span (name, start, end, parent span, operation) and,
for a few functions, work counts read from the returned records. Wrappers
are installed at every module attribute that holds the original function,
because callers look functions up in their own module globals (for example
``trajectory`` imports ``steady_state`` by name, while ``g2_regression``
calls it through ``quantum``). Nothing inside ``src/`` is modified on disk;
``uninstall`` restores the original attributes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "microlaser"
LAYERS = (
    "core", "semiclassical", "quantum", "trajectory",
    "streams", "correlator", "fitting", "cli",
)

# (name, unit) of every metric a traced run reports, in output order.
PER_LAYER_METRICS = (
    ("quantum.g2_regression.s", "s"),
    ("quantum.matvecs", "count"),
    ("quantum.matvec_states", "count"),
    ("quantum.steady_state.s", "s"),
    ("quantum.steady_state.calls", "count"),
    ("quantum.basis_states", "count"),
    ("quantum.q_and_tau_from_g2.s", "s"),
    ("core.averaged_beta_table.s", "s"),
    ("core.beta_evals", "count"),
    ("semiclassical.sweep.s", "s"),
    ("semiclassical.find_fixed_points.calls", "count"),
    ("semiclassical.gain.calls", "count"),
    ("trajectory.simulate.s", "s"),
    ("trajectory.events", "count"),
    ("trajectory.events_per_s", "1/s"),
    ("trajectory.detections", "count"),
    ("trajectory.emit_ratio", "1"),
    ("correlator.correlate.s", "s"),
    ("correlator.starts", "count"),
    ("correlator.pairs", "count"),
    ("correlator.pairs_per_s", "1/s"),
    ("correlator.normalize.s", "s"),
    ("streams.read_stream.s", "s"),
    ("streams.bytes_read", "B"),
    ("streams.write_mlts1.s", "s"),
    ("streams.bytes_written", "B"),
    ("fitting.fit_exp_decay.s", "s"),
    ("fitting.iterations", "count"),
    ("fitting.failures", "count"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("proc.cpu_s", "s"),
    ("trace.overhead_frac", "1"),
)


def _arg(func, args, kwargs, name):
    return inspect.signature(func).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent id, op, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._op = None
        self._fit_error = ()
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, parent, self._op, start, end))

    @contextlib.contextmanager
    def operation(self, index):
        """Root span of one benchmark operation; layer spans nest under it."""
        self._op = index
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(sid, parent, "bench.op", start)
            self._op = None

    # -- installation --------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        self._fit_error = modules[f"{PACKAGE}.errors"].FitConvergenceError
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, func in vars(mod).copy().items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(func)
                    or func.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", func)
                for other in modules.values():
                    for other_attr, value in vars(other).copy().items():
                        if value is func:
                            self._patch(other, other_attr, wrapper)
        gen_cls = modules[f"{PACKAGE}.quantum"].MasterEquationGenerator
        self._patch(gen_cls, "matvec", self._count_matvec(gen_cls.matvec))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_matvec(self, matvec):
        counts = self.counts

        def counted(gen, p):
            counts["quantum.matvecs"] += 1
            counts["quantum.matvec_states"] += p.size
            return matvec(gen, p)

        return counted

    def _wrap(self, name, func):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = func(*args, **kwargs)
            except self._fit_error:
                if name == "fitting.fit_exp_decay":
                    self.counts["fitting.failures"] += 1
                raise
            finally:
                self._close(sid, parent, name, start)
            if observe is not None:
                observe(func, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    # -- counters read from arguments and returned records -------------------

    def _observe_quantum_steady_state(self, func, args, kwargs, result):
        self.counts["quantum.basis_states"] += result.probabilities.size

    def _observe_core_averaged_beta_table(self, func, args, kwargs, result):
        nodes = _arg(func, args, kwargs, "dist").velocities.size
        self.counts["core.beta_evals"] += _arg(func, args, kwargs, "n_max") * nodes

    def _observe_trajectory_simulate(self, func, args, kwargs, result):
        self.counts["trajectory.atoms"] += result.atoms_injected
        self.counts["trajectory.emissions"] += result.emissions
        self.counts["trajectory.events"] += result.atoms_injected + result.decays
        self.counts["trajectory.detections"] += result.detections

    def _observe_correlator_correlate(self, func, args, kwargs, result):
        self.counts["correlator.starts"] += _arg(func, args, kwargs, "a").count
        self.counts["correlator.pairs"] += int(result.counts.sum())

    def _observe_streams_read_stream(self, func, args, kwargs, result):
        self.counts["streams.bytes_read"] += os.path.getsize(_arg(func, args, kwargs, "path"))

    def _observe_streams_write_mlts1(self, func, args, kwargs, result):
        self.counts["streams.bytes_written"] += os.path.getsize(_arg(func, args, kwargs, "path"))

    def _observe_fitting_fit_exp_decay(self, func, args, kwargs, result):
        self.counts["fitting.iterations"] += result.iterations

    # -- summaries -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict:
        """Per-layer numbers for the spans and counts recorded since reset.

        A name's ``.s`` is the summed duration of its spans; a layer's
        ``self_s`` is the time its spans cover minus their direct children.
        """
        total = defaultdict(float)
        calls = Counter()
        children = defaultdict(float)
        for sid, name, parent, _op, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent] += end - start
        self_s = defaultdict(float)
        for sid, name, _parent, _op, start, end in self.spans:
            self_s[name.split(".", 1)[0]] += end - start - children[sid]

        c = self.counts
        sim_s = total["trajectory.simulate"]
        corr_s = total["correlator.correlate"]
        values = {
            "quantum.steady_state.calls": calls["quantum.steady_state"],
            "semiclassical.find_fixed_points.calls": calls["semiclassical.find_fixed_points"],
            "semiclassical.gain.calls": calls["semiclassical.gain"],
            "trajectory.events_per_s": c["trajectory.events"] / sim_s if sim_s else 0.0,
            "trajectory.emit_ratio": (
                c["trajectory.emissions"] / c["trajectory.atoms"] if c["trajectory.atoms"] else 0.0
            ),
            "correlator.pairs_per_s": c["correlator.pairs"] / corr_s if corr_s else 0.0,
        }
        for metric, unit in PER_LAYER_METRICS:
            if metric in values:
                continue
            if metric.endswith(".self_s"):
                values[metric] = self_s[metric[: -len(".self_s")]]
            elif metric.endswith(".s"):
                values[metric] = total[metric[:-2]]
            elif unit in ("count", "B"):
                values[metric] = int(c[metric])
        return values

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "parent", "op", "start_s", "end_s"],
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }
