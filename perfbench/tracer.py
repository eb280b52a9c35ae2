"""In-memory span tracer that wraps each layer's public entry points.

``Tracer.installed()`` patches every binding of a layer function in the
``modeport`` package (``gates``, ``protocol``, ``hamiltonian``, ``reservoir``
and ``selftest`` import ``fock`` names with ``from .fock import ...``, so the
name is replaced in each importing module) and the ``__init__`` of the
register, state and operator classes; leaving the block restores them.

A span stack gives self time: a span's duration minus the durations of its
direct children.  Times are integer nanoseconds, so self time is never
negative.  Argument keys for the repeat counters are computed outside any
span and charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# selftest is imported so that its ``from .fock import ...`` bindings are
# patched as well, although no workload calls it.
from modeport import fock, gates, hamiltonian, protocol, reservoir, selftest  # noqa: F401

# layer -> (owner, attribute) pairs; an owner is a module or a class.
LAYERS = {
    "fock.register_init": [(fock.ModeRegister, "__init__")],
    "fock.state_init": [(fock.QuantumState, "__init__")],
    "fock.operator_init": [(fock.LinearOperator, "__init__")],
    "fock.embed_matrix": [(fock, "embed_matrix")],
    "fock.embed_and_apply": [(fock, "embed_and_apply")],
    "fock.measure_number": [(fock, "measure_number")],
    "fock.partial_trace": [(fock, "partial_trace")],
    "fock.metrics": [(fock, "fidelity"), (fock, "trace_distance"), (fock, "entanglement_entropy")],
    "gates.build": [
        (gates, "phase_gate"),
        (gates, "number_rotation_gate"),
        (gates, "fermionic_swap_gate"),
        (gates, "hopping_gate"),
    ],
    "reservoir.twirl": [
        (reservoir, "twirl_state"),
        (reservoir, "twirl_all"),
        (fock.MeasurementOutcome, "phase_averaged_state"),
    ],
    "reservoir.ssr_check": [(reservoir, "ssr_compliance_check")],
    "reservoir.coherent_state": [(reservoir, "coherent_state")],
    "hamiltonian.build": [(hamiltonian, "build_hamiltonian")],
    "hamiltonian.propagator": [(hamiltonian, "propagator")],
    "hamiltonian.evolve": [(hamiltonian, "evolve")],
    "protocol.run_teleportation": [(protocol, "run_teleportation")],
    "protocol.bell_state_analysis": [(protocol, "bell_state_analysis")],
    "protocol.feed_forward": [(protocol, "feed_forward")],
}

# Layers whose calls are checked for arguments seen earlier in the pass.
REPEAT_LAYERS = ("gates.build", "hamiltonian.propagator")
# Layers whose output size is summed; computed from shapes, not measured.
BYTES_LAYERS = ("fock.embed_matrix", "hamiltonian.propagator")


def _digest(array: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).data, digest_size=16).digest()


def _canon(value):
    """Hashable stand-in for an argument, comparing arrays by content."""
    if isinstance(value, fock.ModeRegister):
        return ("register", value.modes)
    if isinstance(value, fock.LinearOperator):
        return ("operator", value.register.modes, value.kind, value.grids, _digest(value.matrix))
    if isinstance(value, np.ndarray):
        return ("array", value.shape, _digest(value))
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    return value


def _output_bytes(out) -> int:
    matrix = out.matrix if isinstance(out, fock.LinearOperator) else out
    return int(np.prod(matrix.shape)) * matrix.itemsize


class Tracer:
    """Per-layer call counts, self times, repeat and byte counters, and spans.

    ``record_spans`` keeps every span (name, start, end, parent, op) in
    memory; the counters always accumulate.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.bytes: Counter = Counter()
        self.repeats: Counter = Counter()
        self.bookkeeping_ns = 0
        self.spans: list[tuple] = []
        self.record_spans = False
        self._seen: dict[str, set] = {layer: set() for layer in REPEAT_LAYERS}
        # Frames are [name, start_ns, child_ns, span_id]; the root never closes.
        self._stack: list[list] = [["root", 0, 0, -1]]
        self._op = -1

    def reset_seen(self) -> None:
        for seen in self._seen.values():
            seen.clear()

    def _enter(self, name: str) -> list:
        frame = [name, 0, 0, len(self.spans) if self.record_spans else -1]
        if self.record_spans:
            self.spans.append(None)  # filled on exit, keeps start order
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if span_id >= 0:
            self.spans[span_id] = (name, start, end, parent[3], self._op)

    @contextmanager
    def op(self, index: int):
        """Span around one op: its self time is the op's work outside every layer."""
        self._op = index
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)

    def _note_args(self, layer: str, key) -> None:
        seen = self._seen[layer]
        if key in seen:
            self.repeats[layer] += 1
        else:
            seen.add(key)

    def wrap(self, layer: str, fn):
        tracer = self
        keyed = layer in REPEAT_LAYERS
        sized = layer in BYTES_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                t0 = time.perf_counter_ns()
                key = (fn.__name__, _canon(args), _canon(sorted(kwargs.items())))
                tracer._note_args(layer, key)
                spent = time.perf_counter_ns() - t0
                tracer._stack[-1][2] += spent
                tracer.bookkeeping_ns += spent
            frame = tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if sized:
                tracer.bytes[layer] += _output_bytes(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "modeport"]
        undo: list[tuple[object, str, object]] = []
        try:
            for layer, targets in LAYERS.items():
                for owner, attr in targets:
                    original = getattr(owner, attr)
                    wrapper = self.wrap(layer, original)
                    if isinstance(owner, type):
                        undo.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        continue
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

