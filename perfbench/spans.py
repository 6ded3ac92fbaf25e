"""Span tracing of sensact's public functions, from outside the program.

Each listed function is replaced, at every ``sensact.*`` module attribute
that binds it, by a wrapper that records one span (layer, start, end,
parent span). ``cli`` and ``search`` import names directly, so patching
only the defining module would miss their calls. Spans are kept in flat
arrays for one pass and folded into per-layer totals by ``drain``; a
layer's self time is its duration minus the time its direct child spans
cover. Nothing here runs unless a traced pass installs the wrappers.
"""

import sys
import time
from array import array

import numpy as np

#: (module, function) pairs traced; metric names are "<module>.<function>.*"
LAYERS = (
    ("cli", "main"),
    ("modelio", "load_model"),
    ("modelio", "dump_json"),
    ("plant", "mode_matrices"),
    ("plant", "synthesize_gains"),
    ("sequence", "irreducible_core"),
    ("sequence", "admissibility"),
    ("sequence", "monodromy"),
    ("covariance", "steady_error_cov"),
    ("covariance", "steady_augmented_cov"),
    ("linalg", "solve_discrete_lyapunov"),
    ("linalg", "check_psd"),
    ("linalg", "spectral_radius"),
    ("search", "search_fixed_length"),
    ("chance", "verify_chance"),
    ("sim", "run_ensemble"),
    ("sim", "simulate_run"),
    ("sim", "step_closed_loop"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)
_SEARCH = LAYER_NAMES.index("search.search_fixed_length")
_ADMISSIBILITY = LAYER_NAMES.index("sequence.admissibility")


class Tracer:
    """Records spans while installed; ``drain`` returns and resets the
    per-layer totals of everything recorded since the last drain."""

    def __init__(self):
        self._start = array("d")
        self._end = array("d")
        self._layer = array("i")
        self._parent = array("i")
        self._stack = []
        self._patches = []
        # admissibility verdicts reached inside a search span: [seen, admissible]
        self._verdicts = [0, 0]

    def install(self):
        """Patch every binding of every listed function in sensact.*."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sensact" or name.startswith("sensact."))]
        for idx, (mod, fn) in enumerate(LAYERS):
            home = sys.modules.get(f"sensact.{mod}")
            original = getattr(home, fn, None)
            if original is None:  # layer absent from this version: reports zeros
                continue
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, idx, fn):
        start, end, layer, parent = self._start, self._end, self._layer, self._parent
        stack, verdicts, clock = self._stack, self._verdicts, time.perf_counter
        count_verdict = idx == _ADMISSIBILITY

        def wrapper(*args, **kwargs):
            span = len(start)
            layer.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if count_verdict and any(layer[s] == _SEARCH for s in stack):
                verdicts[0] += 1
                verdicts[1] += bool(result.admissible)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def drain(self):
        """Per-layer {"calls", "s", "self_s"} since the last drain, the span
        count, and the in-search admissibility verdicts (seen, admissible)."""
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        layer = np.frombuffer(self._layer, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(LAYERS)
        calls = np.bincount(layer, minlength=k)
        total = np.bincount(layer, weights=dur, minlength=k)
        own = np.bincount(layer, weights=self_time, minlength=k)
        layers = {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                  for i, name in enumerate(LAYER_NAMES)}
        spans = dur.size
        verdicts = tuple(self._verdicts)
        del start, end, layer, parent  # release the buffer exports before resizing
        for arr in (self._start, self._end, self._layer, self._parent):
            del arr[:]
        self._verdicts[:] = [0, 0]
        return layers, spans, verdicts
