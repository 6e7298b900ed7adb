"""The session channel every observer kind shares.

A run records into one observer per kind that is on: a span collector
(:mod:`repro.runtime.trace`), a metrics registry
(:mod:`repro.runtime.metrics`), a sampling profiler
(:mod:`repro.runtime.profiler`).  Each kind reaches a run the same way:
passed explicitly, else the innermost open session, else built fresh
when the component's knob (``Trace@loop``, ...) is on.  A
:class:`Channel` holds that rule, the session stack and the last
observer; each observer module binds its session names to one channel.

Stdlib-only, so every observer module can import it without cycles.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterator


class Channel:
    """One observer kind's sessions, last observer and resolve rule.

    ``factory(*args)`` builds a fresh observer; ``finish(observer)``,
    if given, runs as a session closes.  Sessions nest (innermost wins)
    and are process-wide, not thread-local: stage workers spawned by an
    observed run must see the session's observer.
    """

    def __init__(
        self,
        factory: Callable[..., Any],
        finish: Callable[[Any], None] | None = None,
    ) -> None:
        self._factory = factory
        self._finish = finish
        self._stack: list[Any] = []
        self._last: Any = None
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def session(self, observer: Any = None, *args: Any) -> Iterator[Any]:
        """Every supervised run inside records into ``observer``, which
        then becomes the last observer.  Only ``None`` builds one from
        ``args``: an explicitly passed empty observer is falsy."""
        if observer is None:
            observer = self._factory(*args)
        with self._lock:
            self._stack.append(observer)
        try:
            yield observer
        finally:
            with self._lock:
                self._stack.remove(observer)
                self._last = observer
            if self._finish is not None:
                self._finish(observer)

    def active(self) -> Any:
        """The innermost open session's observer, if any."""
        with self._lock:
            return self._stack[-1] if self._stack else None

    def set_last(self, observer: Any) -> None:
        """Publish an observer created outside a session (a knob's)."""
        with self._lock:
            self._last = observer

    def last(self) -> Any:
        """The most recently finished session's or knob-built observer."""
        with self._lock:
            return self._last

    def resolve(self, explicit: Any, enabled: bool = False, *args: Any) -> Any:
        """``explicit``, else the innermost session's observer, else —
        only when the knob is ``enabled`` — a fresh one built from
        ``args`` and published as the last.  ``None`` means the kind is
        off: the disabled path is one ``is None`` check."""
        if explicit is not None:
            return explicit
        session = self.active()
        if session is not None:
            return session
        if enabled:
            observer = self._factory(*args)
            self.set_last(observer)
            return observer
        return None
