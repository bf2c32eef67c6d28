"""
Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions and methods of every
whitneyext module at the attribute each caller looks up, and records one
span per call: (name, start, end, parent span, op id, note).  A span's
name is "<layer>.<qualified name>", where the layer is the module that
defines the function, so a function imported by name into another module
(``pou.constant`` is ``taylorarith.constant``) still counts for its own
layer.  Methods are wrapped on their class.  ``note`` holds a number taken
from the result for the few calls whose result the per-layer metrics need
(cubes returned, membership verdicts, home levels).

Spans stay in memory until the op ends; between ops `Tracer.take` hands
them to `LayerStats.add`, which reduces them to per-layer self times and
counts, so memory does not grow with run length.  The raw spans of the
first few ops are kept for the run record.
"""

import dataclasses
import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "multiindex",
    "taylorarith",
    "exprlang",
    "jets",
    "decomp",
    "pou",
    "extend",
    "fdb",
    "atlas",
    "cli",
)

# Operator methods do the work of ``a * b`` and friends on Taylor values;
# without them that work would be charged to the calling layer.
_OPERATORS = {
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
}

# Results the per-layer metrics read, reduced to one number per call.
_NOTES = {
    "decomp.Decomposition.locate": lambda cube: cube.level,
    "decomp.Decomposition.neighbors": len,
    "decomp.Decomposition.in_family": int,
    "pou.partition_taylor": len,
    "pou.phi_weights_real": len,
}

SETUP_OP = -1
# ops whose raw spans are kept for the run record
KEEP_OPS = 3
NAME, START, END, PARENT, OP, NOTE = range(6)


def _defining_layer(obj):
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("whitneyext."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


def _wants_method(cls, attr, value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if not inspect.isfunction(value):
        return False  # properties, slots, constants
    if attr == "__init__":
        return not dataclasses.is_dataclass(cls)  # generated initialisers
    return attr in _OPERATORS or not attr.startswith("_")


class Tracer:
    """Span recorder for the whitneyext modules passed to `install`."""

    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self.kept = []
        self._stack = []
        self._patches = []
        self._wrappers = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap every public function and method reachable from `modules`
        (a mapping of layer name to module object)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        classes = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                layer = _defining_layer(value)
                if layer is None or attr.startswith("_"):
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        classes[value] = layer
                elif inspect.isfunction(value):
                    name = f"{layer}.{value.__qualname__}"
                    self._patch(module, attr, self._wrap(name, value))
        for cls, layer in classes.items():
            for attr, value in list(vars(cls).items()):
                if not _wants_method(cls, attr, value):
                    continue
                kind = type(value) if isinstance(value, (staticmethod, classmethod)) else None
                fn = value.__func__ if kind else value
                wrapped = self._wrap(f"{layer}.{fn.__qualname__}", fn)
                self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def take(self):
        """Remove and return the recorded spans, keeping the spans of the
        first `KEEP_OPS` ops for the run record."""
        spans = self.spans[:]
        del self.spans[:]
        if self.op != SETUP_OP and len(self.kept) < KEEP_OPS:
            self.kept.append(spans)
        return spans


def self_times(spans):
    """
    Per-layer self time of a span list whose parent fields index into the
    same list.  Each span contributes its duration minus the durations of
    its direct children; a child's own share goes to the child's layer.
    Summed over a layer this is the layer's span time minus the time of
    child spans of other layers, and same-layer recursion is not counted
    twice.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME].split(".", 1)[0]] += s[END] - s[START] - child[i]
    return dict(out)


class LayerStats:
    """Per-layer totals accumulated over the traced ops of a run."""

    def __init__(self):
        self.ops = 0
        self.self_s = Counter()
        self.calls = Counter()
        self.notes = Counter()
        self.note_calls = Counter()
        self.time_s = Counter()
        self.top_level_expansions = 0

    def add(self, spans, count_op=True):
        if count_op:
            self.ops += 1
        self.self_s.update(self_times(spans))
        for s in spans:
            name = s[NAME]
            self.calls[name] += 1
            self.time_s[name] += s[END] - s[START]
            if s[NOTE] is not None:
                self.notes[name] += s[NOTE]
                self.note_calls[name] += 1
            if name == "exprlang.eval_taylor_env":
                parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
                if parent != name:
                    self.top_level_expansions += 1
