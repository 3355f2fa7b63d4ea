"""Layer spans recorded from outside the program.

Every public function of each dresq module (plus the two ``to_csv``
methods whose cost the benchmark reports) is replaced by a wrapper that
records a span: name, start, end, parent span and the exception type if
the call raised. The wrapper is installed at every binding site, not only
on the defining module: ``spectroscopy``, ``dynamics`` and ``device``
import the Hamiltonian builder and the Fock helpers by name, and ``cli``
imports ``effective_coupling`` and ``find_switch_off`` by name, so
patching ``dresq.device`` alone would miss those calls.

Private helpers stay unwrapped; their cost lands in the self time of the
public function that called them. Spans are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import NamedTuple

LAYERS = ("fock", "device", "spectroscopy", "dynamics", "fitting", "svgplot", "cli")

# public methods worth a span of their own: the CSV emitters
METHODS = (
    ("spectroscopy", "SpectrumSweep", "to_csv"),
    ("dynamics", "ChevronMap", "to_csv"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same call's span list, -1 for a root
    error: str | None
    value: object  # per-function detail, see VALUE_HOOKS


def _eigh_dim(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return int(op.elements.shape[0])


def _fit_iterations(args, kwargs, result):
    return int(result.n_iterations)


def _detected(args, kwargs, result):
    chevron = args[0] if args else kwargs["chevron"]
    return (int(result.n_detected), len(chevron.detunings_mhz))


def _trace_defect(args, kwargs, result):
    return float(abs(result.final_state.rho.trace() - 1.0))


def _svg_bytes(args, kwargs, result):
    return len(result.encode())


# extra facts taken from a successful call's arguments or result
VALUE_HOOKS = {
    "fock.eigendecompose_hermitian": _eigh_dim,
    "fitting.fit_damped_cosine": _fit_iterations,
    "fitting.fit_exp_decay": _fit_iterations,
    "fitting.geff_from_chevron": _detected,
    "dynamics.evolve": _trace_defect,
    "svgplot.line_plot": _svg_bytes,
    "svgplot.heatmap": _svg_bytes,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Wraps the public dresq functions; spans accumulate until :meth:`take`."""

    def __init__(self, modules: dict[str, object]):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self._method_patches = []
        for layer in LAYERS:
            for name, fn in public_functions(modules[layer]).items():
                self._register(fn, f"{layer}.{name}")
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._method_patches.append((cls, meth, fn, self._wrap(fn, f"{layer}.{meth}")))
        self._patches: list[tuple[object, str, object]] = []

    def _register(self, fn, span_name: str) -> None:
        self._wrappers[id(fn)] = (fn, self._wrap(fn, span_name))

    def _wrap(self, fn, span_name: str):
        hook = VALUE_HOOKS.get(span_name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                value = hook(args, kwargs, result) if hook and error is None else None
                spans[index] = Span(span_name, start, end, parent, error, value)

        wrapper.span_name = span_name
        return wrapper

    def install(self) -> None:
        """Patch every dresq module attribute bound to a wrapped function."""
        if self._patches:
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dresq" or mod_name.startswith("dresq.")):
                continue
            for attr, obj in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))
        for cls, meth, fn, wrapper in self._method_patches:
            setattr(cls, meth, wrapper)
            self._patches.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list[Span]:
        """Return and clear the spans recorded so far."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another inside it, so the covered
    time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one workload call from its spans.

    A layer idle in the call reports 0 for its counts and times, and 0 for
    ratios with an empty base.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    values: dict[str, list] = {}
    # index of the nearest qubit_qubit_gap ancestor, or -1; parents precede
    # their children in the list
    gap_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[i]
        if s.value is not None:
            values.setdefault(s.name, []).append(s.value)
        if s.name == "spectroscopy.qubit_qubit_gap":
            gap_of[i] = i
        elif s.parent >= 0:
            gap_of[i] = gap_of[s.parent]

    def n(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def o(name):
        return self_s.get(name, 0.0)

    eigh = "fock.eigendecompose_hermitian"
    fit = "fitting.fit_damped_cosine"
    gaps_returned = sum(
        1 for s in spans if s.name == "spectroscopy.qubit_qubit_gap" and s.error is None
    )
    eigh_in_gaps = sum(
        1 for i, s in enumerate(spans)
        if s.name == eigh and gap_of[i] >= 0 and spans[gap_of[i]].error is None
    )
    fit_failed = sum(1 for s in spans if s.name == fit and s.error == "FitError")
    detected = values.get("fitting.geff_from_chevron", [])
    columns = sum(c for _, c in detected)
    return {
        "fock.embed.calls": n("fock.embed_operator"),
        "fock.embed.busy_s": b("fock.embed_operator"),
        "fock.eigh.calls": n(eigh),
        "fock.eigh.busy_s": b(eigh),
        "fock.eigh.dim_max": max(values.get(eigh, [0])),
        "device.build_hamiltonian.calls": n("device.build_hamiltonian"),
        "device.build_hamiltonian.self_s": o("device.build_hamiltonian"),
        "device.effective_coupling.calls": n("device.effective_coupling"),
        "spectroscopy.sweep_spectrum.self_s": o("spectroscopy.sweep_spectrum"),
        "spectroscopy.qubit_qubit_gap.self_s": o("spectroscopy.qubit_qubit_gap"),
        "spectroscopy.diag_per_gap": eigh_in_gaps / gaps_returned if gaps_returned else 0.0,
        "spectroscopy.to_csv.busy_s": b("spectroscopy.to_csv"),
        "dynamics.evolve.self_s": o("dynamics.evolve"),
        "dynamics.trace_defect_max": max(values.get("dynamics.evolve", [0.0])),
        "dynamics.vacuum_rabi_chevron.self_s": o("dynamics.vacuum_rabi_chevron"),
        "dynamics.to_csv.busy_s": b("dynamics.to_csv"),
        "fitting.fit_damped_cosine.calls": n(fit),
        "fitting.fit_damped_cosine.busy_s": b(fit),
        "fitting.fit_damped_cosine.fail_ratio": fit_failed / n(fit) if n(fit) else 0.0,
        "fitting.lm_iterations": sum(values.get(fit, []))
        + sum(values.get("fitting.fit_exp_decay", [])),
        "fitting.detected_ratio": sum(d for d, _ in detected) / columns if columns else 0.0,
        "fitting.geff_from_chevron.self_s": o("fitting.geff_from_chevron"),
        "svgplot.busy_s": b("svgplot.line_plot") + b("svgplot.heatmap"),
        "svgplot.bytes": sum(values.get("svgplot.line_plot", []))
        + sum(values.get("svgplot.heatmap", [])),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.bytes_written": bytes_written,
    }
