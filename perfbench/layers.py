"""Layer attribution for the benchmark: spans around nilcantor's public calls.

The tracer changes no source file.  `Tracer.install()` wraps every public
function and method of the six layer modules (and the constructors and
group product of their classes) and rebinds each wrapped name in every
loaded ``nilcantor`` module, because modules import each other's names
directly.  A call into a layer other than the caller's opens a span
(name, start, end, parent id); a nested call within the same layer only
counts.  A layer's self time is its span time minus the time of its child
spans, which always belong to other layers.

Run as a script this module is the child process of a traced pass:

    python perfbench/layers.py cli <nilcantor arguments>
    python perfbench/layers.py probe <primes|box_at> <bound>

The ``cli`` form prints the CLI report on stdout and the trace summary as
the last line of stderr, prefixed by ``TRACE_SUMMARY``.  The ``probe``
form prints the probe's seconds as one JSON line.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "towers", "dynamics", "heisenberg", "steinitz", "oracle")
SUMMARY_PREFIX = "TRACE_SUMMARY "
_FOLD_EVERY = 1 << 16  # closed spans kept in memory before folding
_WRAPPED_DUNDERS = ("__init__", "__mul__")


def self_times(spans) -> Counter:
    """Self seconds per layer from closed spans.

    Each span is (span_id, parent_id, layer, parent_layer, start_ns,
    end_ns); parent_id and parent_layer are None for a root span.  A span
    adds its duration to its own layer and takes it away from its parent's
    layer, so the result is each layer's span time minus its child spans.
    Spans may arrive in any order and in chunks: the sums just add.
    """
    out: Counter = Counter()
    for _sid, _pid, layer, parent_layer, start, end in spans:
        dur = (end - start) / 1e9
        out[layer] += dur
        if parent_layer is not None:
            out[parent_layer] -= dur
    return out


class Tracer:
    """Records spans at layer boundaries and counts every wrapped call."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls: Counter = Counter()  # "layer.Qual.name" -> calls
        self.edges: Counter = Counter()  # (caller layer, callee key) -> calls
        self.self_s: Counter = Counter()
        self.spans = 0
        self._closed: list = []
        self._stack: list = []  # open spans: (span_id, layer)
        self._next_id = 0

    # -- spans ------------------------------------------------------------

    def enter(self, layer: str):
        """Open a span; returns the token `leave` needs."""
        parent_id, parent_layer = self._stack[-1] if self._stack else (None, None)
        self._next_id += 1
        self._stack.append((self._next_id, layer))
        return (self._next_id, parent_id, layer, parent_layer), self.clock()

    def leave(self, token) -> None:
        span, start = token
        end = self.clock()
        self._stack.pop()
        self._closed.append(span + (start, end))
        self.spans += 1
        if len(self._closed) >= _FOLD_EVERY:
            self.fold()

    def fold(self) -> None:
        self.self_s.update(self_times(self._closed))
        self._closed.clear()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer: str, key: str):
        calls, edges, stack, enter, leave = (
            self.calls, self.edges, self._stack, self.enter, self.leave)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            caller = stack[-1][1] if stack else None
            if caller == layer:
                return fn(*args, **kwargs)
            edges[caller, key] += 1
            token = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(token)

        return traced

    def install(self) -> None:
        """Wrap the public surface of every layer module and rebind it."""
        modules = {name: importlib.import_module(f"nilcantor.{name}") for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if _is_function_of(obj, mod):
                    replaced[id(obj)] = self.wrap(obj, layer, f"{layer}.{name}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nilcantor" or mod_name.startswith("nilcantor.")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, layer, key)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self.wrap(attr.fget, layer, key)))
            elif callable(attr) and hasattr(attr, "__code__"):
                setattr(cls, name, self.wrap(attr, layer, key))

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        self.fold()
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "edges": {f"{caller}>{key}": n for (caller, key), n in self.edges.items()},
            "spans": self.spans,
        }


def _is_function_of(obj, mod) -> bool:
    return callable(obj) and hasattr(obj, "__code__") and obj.__module__ == mod.__name__


def merge_summaries(summaries) -> dict:
    """Sum several trace summaries (one per traced process)."""
    self_s, calls, edges, spans = Counter(), Counter(), Counter(), 0
    for s in summaries:
        self_s.update(s["self_s"])
        calls.update(s["calls"])
        edges.update(s["edges"])
        spans += s["spans"]
    return {"self_s": dict(self_s), "calls": dict(calls), "edges": dict(edges), "spans": spans}


def layer_metrics(summary: dict) -> dict:
    """The named per-layer metrics (without import, probes and overhead)."""
    calls, edges, self_s = summary["calls"], summary["edges"], summary["self_s"]

    def method(layer, name):
        """Calls of `name` on every class of the layer (all prime enumerations)."""
        return sum(n for key, n in calls.items()
                   if key.startswith(layer + ".") and key.count(".") == 2
                   and key.endswith("." + name))

    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "towers.box_at.calls": calls.get("towers.ChainSpec.box_at", 0),
        "towers.core_at.calls": calls.get("towers.ChainSpec.core_at", 0),
        "towers.stable_image.calls": calls.get("towers.ChainSpec.stable_image", 0),
        "towers.relevant_primes.calls": calls.get("towers.ChainSpec.relevant_primes", 0),
        "dynamics.trivial_action_kernel.calls": calls.get("dynamics.trivial_action_kernel", 0),
        "dynamics.lqa_witness.calls": calls.get("dynamics.lqa_witness", 0),
        "heisenberg.relative_core.calls": calls.get("heisenberg.relative_core", 0),
        "heisenberg.index_in.calls": calls.get("heisenberg.index_in", 0),
        "heisenberg.element_ops": sum(
            calls.get(f"heisenberg.HeisenbergElement.{op}", 0)
            for op in ("__mul__", "inverse", "conjugate_by", "is_identity")
        ),
        "steinitz.prime.calls": method("steinitz", "prime"),
        "steinitz.index_of.calls": method("steinitz", "index_of"),
        "steinitz.spectra.calls": calls.get("steinitz.spectra", 0),
        "steinitz.equivalence.calls": calls.get("steinitz.asymptotically_equivalent", 0),
        "oracle.fixing_scan.calls": calls.get("oracle.fixing_scan", 0),
        "oracle.cells_scanned": edges.get("oracle>heisenberg.BoxSubgroup.contains", 0),
        "trace.spans": summary["spans"],
    })
    return out


# -- child-process entry points ------------------------------------------------


def _traced_cli(argv) -> int:
    import nilcantor.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = nilcantor.cli.main(argv)
    finally:
        sys.stdout.flush()
        print(SUMMARY_PREFIX + json.dumps(tracer.summary()), file=sys.stderr)
    return code


def _probe(kind: str, bound: int) -> int:
    """Time one layer on its own, through public functions only."""
    if kind == "primes":
        from nilcantor.steinitz import Primes

        primes = Primes()
        start = time.perf_counter()
        for i in range(bound):
            primes.prime(i)
    elif kind == "box_at":
        from nilcantor.towers import wild_chain

        chain = wild_chain(2, 1)
        start = time.perf_counter()
        for level in range(1, bound + 1):
            chain.box_at(level)
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps({"seconds": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli"]:
        sys.exit(_traced_cli(sys.argv[2:]))
    if sys.argv[1:2] == ["probe"] and len(sys.argv) == 4:
        sys.exit(_probe(sys.argv[2], int(sys.argv[3])))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
