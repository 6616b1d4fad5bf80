"""Layer-boundary tracing from outside the program.

``Tracer`` replaces every public function of the given lensfib modules by a
wrapper that records a span: name, start, end, parent and the op it belongs
to.  It rebinds each wrapped function under every name any lensfib module
holds it by, so calls that one module makes into another are seen too, and
it puts the originals back when it exits.  Wrappers record only inside an op
opened with ``begin_op``; elsewhere they call straight through.

Spans live in flat arrays while a pass runs.  ``take`` hands them over as a
``Spans`` record, from which the per-layer figures are computed.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

# The span every op's library calls hang from.
OP = "bench.op"


@dataclass
class Spans:
    names: list[str]
    name: array = field(default_factory=lambda: array("H"))
    parent: array = field(default_factory=lambda: array("q"))
    op: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))
    raised: bytearray = field(default_factory=bytearray)
    # Span id -> value a note function took from the call's result.
    notes: dict[int, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.start)

    def layer(self, i: int) -> str:
        return self.names[self.name[i]].split(".", 1)[0]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "op", "name", "start_ns", "end_ns", "raised"))
            for i in range(len(self)):
                out.writerow((i, self.parent[i], self.op[i], self.names[self.name[i]],
                              self.start[i], self.end[i], self.raised[i]))


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlaps between
    children are counted once.  A parent of -1 marks a root.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if run_e is not None and cs <= run_e:
                run_e = max(run_e, ce)
                continue
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = cs, ce
        if run_e is not None:
            covered += run_e - run_s
        out.append(e - s - covered)
    return out


class Tracer:
    """Context manager that wraps the public functions of ``modules``.

    ``notes`` maps a qualified name such as ``classify.enumerate_fibrations``
    to a function of the call's result whose value is kept with the span.
    """

    def __init__(self, modules, notes=None):
        self._modules = list(modules)
        self._notes = dict(notes or {})
        self._stack: list[int] = []
        self._op_index = -1
        self._patched: list[tuple[object, str, object]] = []
        self._spans = Spans(names=[OP])

    # -- installing and removing the wrappers --

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module in self._modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "lensfib" or name.startswith("lensfib.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qualname: str):
        names = self._spans.names
        names.append(qualname)
        index = len(names) - 1
        note = self._notes.get(qualname)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            s = tracer._spans
            sid = len(s.start)
            s.name.append(index)
            s.parent.append(stack[-1])
            s.op.append(tracer._op_index)
            s.raised.append(0)
            s.end.append(0)
            stack.append(sid)
            s.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.end[sid] = clock()
                s.raised[sid] = 1
                stack.pop()
                raise
            s.end[sid] = clock()
            stack.pop()
            if note is not None:
                s.notes[sid] = note(result)
            return result

        return traced

    # -- ops and spans --

    def begin_op(self, index: int) -> None:
        s = self._spans
        self._op_index = index
        sid = len(s.start)
        s.name.append(0)
        s.parent.append(-1)
        s.op.append(index)
        s.raised.append(0)
        s.end.append(0)
        self._stack.append(sid)
        s.start.append(time.perf_counter_ns())

    def end_op(self) -> None:
        self._spans.end[self._stack.pop()] = time.perf_counter_ns()

    def take(self) -> Spans:
        """The spans recorded so far; recording continues into a fresh set."""
        taken = self._spans
        self._spans = Spans(names=taken.names)
        return taken
