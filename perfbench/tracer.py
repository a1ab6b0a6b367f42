"""Outside-in layer tracer for the waverep benchmark.

The tracer changes nothing under ``src/``.  It replaces every binding of a
package function in every loaded ``waverep`` module (``cli.train`` and
``training.train`` are the same object, so both are patched) with a wrapper
that records a span, and wraps ``Tape.record`` so that each backward closure
is timed as a ``bwd`` span charged to the function that was innermost when
the closure was recorded.  ``uninstall`` puts every original back.

A span is ``[name, kind, parent, start, end, recorded]``: ``kind`` is
``"call"`` for a function call (for a generator, one span per ``next``) or
``"bwd"`` for a backward closure, ``parent`` is the index of the enclosing
span (``-1`` at top level) and ``recorded`` marks a call span during which a
backward closure was recorded.  Self time is a span's duration minus the
durations of its direct children.

Names are ``<module>.<function>`` with the ``waverep.`` prefix dropped, or
``<module>.<Class>.<method>`` for methods.  A required name that no longer
exists is listed in ``missing`` and skipped; it is never an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, KIND, PARENT, START, END, RECORDED = range(6)

#: methods traced in addition to every public module-level function
METHODS = ("autodiff.Tape.backward",)
RECORD = "autodiff.Tape.record"


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    recorded: int = 0


def aggregate(spans, keep=None) -> dict[tuple[str, str], Stat]:
    """Per ``(name, kind)``: span count, inclusive time and self time, over
    the spans whose ``keep`` flag is set (all of them by default)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[tuple[str, str], Stat] = defaultdict(Stat)
    for i, s in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        st = out[(s[NAME], s[KIND])]
        dur = s[END] - s[START]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child[i]
        st.recorded += bool(s[RECORDED])
    return out


def public_functions(package: str) -> list[str]:
    """Every public function defined in a loaded module of ``package``."""
    names = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod_name):
                names.append(f"{_short(mod_name, package)}.{attr}")
    return names


def _short(mod_name: str, package: str) -> str:
    return mod_name[len(package) + 1:] if mod_name != package else package


class Tracer:
    """Records spans around package functions while installed.

    ``required`` names must exist (a name that does not is reported in
    ``missing``); ``hooks`` map a name to ``fn(bound_arguments, result) ->
    {key: number}`` whose values are summed into ``notes[name + "." + key]``.
    """

    def __init__(self, package: str = "waverep", required=(), hooks=None,
                 clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.required = tuple(required)
        self.hooks = dict(hooks or {})
        self.clock = clock
        self.spans: list[list] = []
        self.notes: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, kind: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, kind, parent, self.clock(), 0.0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, "call")
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, "call")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    self.notes[f"{name}.{key}"] += value
            return result
        return wrapper

    def _wrap_record(self, original):
        tracer = self

        @functools.wraps(original)
        def record(tape, op, *args, **kwargs):
            if tracer._stack:
                owner_idx = tracer._stack[-1]
                owner = tracer.spans[owner_idx][NAME]
                tracer.spans[owner_idx][RECORDED] = True
            else:
                owner = "<untraced>"
            tracer.notes[f"{RECORD}.calls"] += 1

            def timed():
                idx = tracer._open(owner, "bwd")
                try:
                    return op()
                finally:
                    tracer._close(idx)
            return original(tape, timed, *args, **kwargs)
        return record

    # -- install / uninstall ----------------------------------------------
    def _resolve(self, name: str):
        """(owner, attribute, object) for ``mod.fn`` or ``mod.Class.meth``."""
        parts = name.split(".")
        for split in (len(parts) - 1, len(parts) - 2):
            if split < 1:
                continue
            mod = sys.modules.get(f"{self.package}.{'.'.join(parts[:split])}")
            if mod is None:
                continue
            owner = mod
            for part in parts[split:-1]:
                owner = getattr(owner, part, None)
            obj = getattr(owner, parts[-1], None) if owner is not None else None
            if obj is not None:
                return owner, parts[-1], obj
        return None

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        names = sorted(set(public_functions(self.package)) | set(METHODS) | set(self.required))
        for name in names:
            found = self._resolve(name)
            if found is None:
                if name in self.required or name in METHODS:
                    self.missing.append(name)
                continue
            owner, attr, obj = found
            if inspect.ismodule(owner):
                wrapper = self._wrap(name, obj)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, attr, self._wrap(name, obj))
        found = self._resolve(RECORD)
        if found is None:
            self.missing.append(RECORD)
        else:
            owner, attr, obj = found
            self._patch(owner, attr, self._wrap_record(obj))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------
    def stats(self, under: str | None = None) -> dict[tuple[str, str], Stat]:
        """Aggregate every span, or only ``under`` call spans and their
        descendants."""
        if under is None:
            return aggregate(self.spans)
        keep: list[bool] = []
        for s in self.spans:  # a parent is opened, so listed, before its children
            keep.append((s[NAME] == under and s[KIND] == "call")
                        or (s[PARENT] >= 0 and keep[s[PARENT]]))
        return aggregate(self.spans, keep)
