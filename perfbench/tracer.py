"""Per-layer tracing of pilly from outside its source.

A layer is one `pilly` module.  The tracer wraps the public functions
each layer defines and replaces every module binding of them, because
`cli`, `encodings` and `relations` import `infer_type`, `check_type`,
`equal` and `normalize` by name.  A span is recorded only when a call
enters a layer from outside it, so recursion inside a layer (`prop_beta`,
`kind_check`) folds into the first call.  Span stacks are kept per
thread, because `cli.cmd_check` elaborates files on a thread pool, and
each span records both wall time and `time.thread_time`.

`syntax` is not a layer: it is called per node from inside every layer,
and its cost lands in its callers' self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, thread_time

LAYERS = ("cli", "parser", "pretty", "typecheck", "rewrite", "functor",
          "encodings", "relations")

# `rewrite.step` is called once per node from inside `normalize` and from
# no other layer; wrapping it would only measure the wrapper.
_NOT_ENTRIES = {("rewrite", "step")}

SPAN_FIELDS = ("id", "parent", "thread", "item", "layer", "function",
               "start", "end", "self_wall", "self_cpu", "error")


def layer_errors() -> dict[str, tuple[type, ...]]:
    """Each layer's own error types."""
    from pilly import functor, parser, relations, rewrite, typecheck
    return {
        "cli": (),
        "parser": (parser.ParseError,),
        "pretty": (),
        "typecheck": (typecheck.TypeCheckError,),
        "rewrite": (rewrite.FuelExhausted,),
        "functor": (functor.PolarityViolation,),
        "encodings": (functor.PolarityViolation,),
        "relations": (relations.FormationError,),
    }


def entry_functions() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every public function a layer defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"pilly.{layer}")
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or (layer, name) in _NOT_ENTRIES):
                continue
            out.append((layer, name, fn))
    return out


class Tracer:
    """Spans in memory, one list per thread, written out by `dump`.

    Each thread keeps at most SPAN_LIMIT spans; its per-layer totals
    count every span.  `measure(layer, name, args, result)` is called
    after each outermost entry that returns; the counting pass uses it to
    size what enters a layer.
    """

    SPAN_LIMIT = 100_000

    def __init__(self, measure=None):
        self.measure = measure
        self.item = None  # index of the item in flight; one client thread
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, dict]] = []
        self._ids = itertools.count(1)

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], [], {})
            with self._lock:
                self._threads.append(st[1:])
        return st

    def wrap(self, layer: str, name: str, fn, errors: tuple[type, ...]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, totals = tracer._state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, next(tracer._ids), 0.0, 0.0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            raised = False
            w0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            except errors as e:
                # count an error once, in the innermost layer it left
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = raised = True
                raise
            finally:
                c1 = thread_time()
                w1 = perf_counter()
                stack.pop()
                wall, cpu = w1 - w0, c1 - c0
                if stack:
                    stack[-1][2] += wall
                    stack[-1][3] += cpu
                self_wall, self_cpu = wall - frame[2], cpu - frame[3]
                row = totals.setdefault(layer, [0, 0.0, 0.0, 0])
                row[0] += 1
                row[1] += self_wall
                row[2] += self_cpu
                row[3] += raised
                if len(spans) < tracer.SPAN_LIMIT:
                    spans.append((frame[1], parent, threading.get_ident(),
                                  tracer.item, layer, name, w0, w1,
                                  self_wall, self_cpu, raised))
            if tracer.measure is not None:
                tracer.measure(layer, name, args, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, cpu_s and errors over all threads."""
        out = {layer: {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "errors": 0}
               for layer in LAYERS}
        with self._lock:
            rows = [r for _, totals in self._threads for r in totals.items()]
        for layer, (calls, self_s, cpu_s, errors) in rows:
            out[layer]["calls"] += calls
            out[layer]["self_s"] += self_s
            out[layer]["cpu_s"] += cpu_s
            out[layer]["errors"] += errors
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = [s for lst, _ in self._threads for s in lst]
        with path.open("w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def instrumented(tracer: Tracer, counts: "Counts | None" = None):
    """Replace every binding of every layer entry function while active."""
    errors = layer_errors()
    replace = {}
    for layer, name, fn in entry_functions():
        inner = counts.hook(layer, name, fn) if counts is not None else fn
        replace[fn] = tracer.wrap(layer, name, inner, errors[layer])
    patched = []
    try:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pilly"
                                   or mod_name.startswith("pilly.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    setattr(mod, attr, replace[val])
                    patched.append((mod, attr, val))
        yield tracer
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# ---------------------------------------------------------------------------
# Exact counts, from an untimed pass


_FIELDS_CACHE: dict[type, tuple[str, ...]] = {}


def node_count(obj) -> int:
    """Syntax nodes (types, terms, relations, propositions) in `obj`."""
    from pilly import syntax as S
    node_types = (S.Type, S.Term, S.Relation, S.Proposition)
    n = 0
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, node_types):
            n += 1
            names = _FIELDS_CACHE.get(type(x))
            if names is None:
                names = _FIELDS_CACHE[type(x)] = tuple(
                    f.name for f in dataclasses.fields(x))
            todo.extend(getattr(x, f) for f in names)
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
    return n


class Counts:
    """Work counts of one pass.  Rewrite steps are counted by replaying
    the public `rewrite.step` from every `normalize` input and checking
    that the replay reaches the normal form `normalize` returned."""

    def __init__(self):
        self.values = {"parser.bytes": 0, "typecheck.nodes": 0,
                       "rewrite.steps": 0, "rewrite.nf_nodes": 0,
                       "rewrite.unrolls": 0, "rewrite.fuel_exhausted": 0,
                       "rewrite.equal_calls": 0, "rewrite.equal_decided": 0,
                       "encodings.generated_nodes": 0}
        self.mismatches: list[str] = []
        # cmd_check's pool threads update the same counters
        self._lock = threading.Lock()

    def _add(self, key: str, n: int) -> None:
        with self._lock:
            self.values[key] += n

    def hook(self, layer: str, name: str, fn):
        """Count at every call of `rewrite.normalize`, `equal` and
        `unroll_y`, including calls from inside the rewrite layer."""
        if layer != "rewrite" or name not in ("normalize", "equal",
                                              "unroll_y"):
            return fn
        from pilly import rewrite as R
        step = R.step

        if name == "unroll_y":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._add("rewrite.unrolls", 1)
                return out
        elif name == "equal":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._add("rewrite.equal_calls", 1)
                self._add("rewrite.equal_decided",
                          isinstance(out, (R.Equal, R.NotEqual)))
                return out
        else:
            @functools.wraps(fn)
            def counted(t, cfg=None):
                cfg = cfg or R.RewriteConfig()
                exhausted = None
                try:
                    out = fn(t, cfg)
                except R.FuelExhausted as e:
                    out, exhausted = e.term, e
                n, cur = 0, t
                while n < cfg.fuel:
                    nxt = step(cur, cfg.eta)
                    if nxt is None:
                        break
                    cur, n = nxt, n + 1
                replay_exhausted = (n == cfg.fuel
                                    and step(cur, cfg.eta) is not None)
                if cur != out or replay_exhausted != (exhausted is not None):
                    with self._lock:
                        self.mismatches.append(
                            f"replayed normal form differs after {n} steps")
                self._add("rewrite.steps", n)
                if exhausted is not None:
                    self._add("rewrite.fuel_exhausted", 1)
                    raise exhausted
                self._add("rewrite.nf_nodes", node_count(out))
                return out
        return counted

    def measure(self, layer: str, name: str, args: tuple, result) -> None:
        """Sizes of what enters a layer from outside it."""
        if layer == "parser":
            self._add("parser.bytes", sum(len(a.encode()) for a in args
                                          if isinstance(a, str)))
        elif layer == "typecheck":
            self._add("typecheck.nodes", node_count(list(args)))
        elif layer == "encodings":
            from pilly.encodings import EncodingBundle
            if isinstance(result, EncodingBundle):
                self._add("encodings.generated_nodes", node_count(
                    [result.defined_type, result.combinators,
                     result.beta_laws, result.schema_laws]))
