"""Spans around the calls into lieorb's public functions, from outside lieorb.

A traced function is wrapped at every place it is looked up through: each
attribute of a loaded ``lieorb`` module (the package, the defining module and
every module that imported the name) and each entry of a module-level dict
such as ``cli.CHECK_FUNCS``.  Internal calls such as ``exp_H`` ->
``flow_exact`` or ``check_arnold`` -> ``check_symplecto`` resolve through
module globals, so they are traced as well.

Spans are kept in memory as ``(name, start, end, parent, op)`` rows and written
when the run ends.  A span's self time is its duration minus the durations of
its direct child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs, in pipeline order; "module.function" names the span
TRACED = (
    ("liecore", "build_algebra"),
    ("liecore", "cartan_split"),
    ("rootspace", "maximal_abelian"),
    ("rootspace", "restricted_roots"),
    ("parabolic", "nilpotency_index"),
    ("parabolic", "hyperbolic_data"),
    ("flows", "flow_exact"),
    ("flows", "exp_H"),
    ("flows", "invert_exp_H"),
    ("flows", "flow_numeric"),
    ("kkform", "kk_eval"),
    ("kkform", "exactness_verdict"),
    ("kkform", "nondegeneracy_check"),
    ("symplecto", "phi_lambda"),
    ("symplecto", "project_pi"),
    ("symplecto", "pullback_residual"),
    ("symplecto", "liouville_fd_gap"),
    ("cli", "check_roots"),
    ("cli", "check_parabolic"),
    ("cli", "check_kk"),
    ("cli", "check_flow"),
    ("cli", "check_symplecto"),
    ("cli", "check_arnold"),
)


class Tracer:
    """Records nested spans; ``install`` swaps the wrappers in, ``remove`` undoes it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self.op = -1

    def _enter(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.op)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid, name, start)

        return wrapper

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "lieorb" or name.startswith("lieorb."))
        }
        for modname, fname in TRACED:
            original = getattr(mods["lieorb." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original, False))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._patched.append((value, key, original, True))
                                value[key] = wrapper

    def remove(self) -> None:
        for holder, key, original, is_dict in reversed(self._patched):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    def self_times(self, in_ops: bool, factor) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, number of spans), over the spans inside
        operations (in_ops) or over those of the set-up (op id -1).  Each span's
        self time is multiplied by factor(start, end)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for sid, (name, start, end, _, op) in enumerate(self.spans):
            if (op >= 0) == in_ops:
                total, count = out.get(name, (0.0, 0))
                out[name] = (total + (end - start - child[sid]) * factor(start, end), count + 1)
        return out

    def child_counts(self, parent_name: str, child_name: str) -> tuple[int, int]:
        """(spans named child_name directly under a parent_name span, parent spans)."""
        parents = {sid for sid, s in enumerate(self.spans) if s[0] == parent_name}
        kids = sum(1 for s in self.spans if s[0] == child_name and s[3] in parents)
        return kids, len(parents)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
