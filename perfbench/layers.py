"""Layer spans for the traced run, recorded from the benchmark's own files.

The runtime has no per-layer timers, so the traced run wraps calls into
each layer's public functions *where the caller looks them up*: a module
global imported into the caller's namespace (``repro.runtime.coordinator.
scan_addresses``) is replaced in that namespace, a method on its class.
Every wrapper is a span.  Spans nest, because layers call each other, so
each one records its *self* time: its own duration minus the part of it
that its child spans cover.  The benchmark is single-threaded, so one
stack of child-time accumulators is exact, and the self times of all
spans never overlap.  Their sum plus ``unattributed_s`` is therefore the
traced wall time, as :func:`accounting` reports it.

Wrappers are installed for the traced window only and removed afterwards
(:meth:`Spans.restore`), so the untraced window that the overhead figure
compares against runs the unmodified program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable


class Spans:
    """Self-time and call-count accounting for a set of wrapped callables."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Child-time accumulators; index 0 collects top-level spans.
        self._stack: list[float] = [0.0]
        self._patched: list[tuple[Any, str, Any]] = []
        self.frozen = False

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                if not self.frozen:
                    self_s[name] += elapsed - child
                    calls[name] += 1

        return span

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: consume inside the span.

        A generator does its work when iterated, after the call returns;
        the span materialises the result so the work is timed where the
        caller asked for it.  The callers in the runtime only iterate the
        result once, so a list is an exact stand-in.
        """
        return self.wrap(name, lambda *a, **k: list(fn(*a, **k)))

    def patch(self, owner: Any, attr: str, name: str, *,
              iterator: bool = False) -> None:
        """Replace ``owner.attr`` by a span; :meth:`restore` puts it back."""
        wrapper = self.wrap_iter if iterator else self.wrap
        self.patch_with(owner, attr, lambda original: wrapper(name, original))

    def patch_with(self, owner: Any, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        On a class only an attribute the class itself defines is replaced,
        so restoring cannot leave a copy shadowing an inherited one.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first, and stop recording."""
        self.frozen = True
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def accounting(spans: Spans, wall_s: float,
               metric_of: dict[str, str]) -> dict[str, float]:
    """Self time per reported metric plus ``unattributed_s``.

    ``metric_of`` maps every span name to the metric it is reported
    under (several spans may share one).  A span without a metric would
    silently leave the identity, so it is an error.  The identity
    ``sum(metrics) + unattributed_s == wall_s`` holds by construction;
    a negative remainder would mean two spans counted the same time.
    """
    out = {metric: 0.0 for metric in metric_of.values()}
    for span, seconds in spans.self_s.items():
        if span not in metric_of:
            raise KeyError(f"span {span!r} has no per-layer metric")
        out[metric_of[span]] += seconds
    out["unattributed_s"] = wall_s - sum(out.values())
    out["traced_wall_s"] = wall_s
    return out
