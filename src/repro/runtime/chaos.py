"""Deterministic fault injection for the supervised runtime.

Fault policies are only trustworthy if they are testable, and thread
scheduling makes naturally-occurring faults irreproducible.  A
:class:`ChaosInjector` wraps any stage function / loop body with a
*seeded* injector — raise-with-probability, delay-with-probability, and
fail-first-K — so a fault scenario replays exactly from its seed.  Each
wrapped callable draws from its own stream (derived from the injector
seed and the wrap name), which keeps the injected-fault *count* per
callable deterministic even when replicated stages race on call order.

Used by the robustness tests, ``benchmarks/bench_study_robustness.py``
and the ``verify --chaos SEED`` CLI path, which runs the generated
parallel unit tests under injected faults as well as under interleaving
exploration.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Callable


class ChaosError(RuntimeError):
    """A deterministically injected fault (never a real stage error)."""


class _NamedStream:
    """Per-wrapped-callable rng + fail-first counter, lock-guarded."""

    __slots__ = ("rng", "calls", "lock")

    def __init__(self, seed: int, name: str) -> None:
        import random

        derived = zlib.crc32(name.encode("utf-8")) ^ (seed & 0xFFFFFFFF)
        self.rng = random.Random(derived)
        self.calls = 0
        self.lock = threading.Lock()


class ChaosInjector:
    """Wrap callables with seeded, reproducible fault injection.

    ``fail_rate`` / ``delay_rate`` are per-call probabilities;
    ``fail_first`` fails the first K calls of each wrapped callable
    unconditionally (the deterministic worst case for retry policies).
    Counters (`injected_failures`, `injected_delays`, `calls`) make
    conservation checks possible in tests.
    """

    def __init__(
        self,
        seed: int = 0,
        fail_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.001,
        fail_first: int = 0,
        exception: Callable[[str], BaseException] = ChaosError,
        kill_rate: float = 0.0,
        kill_attempts: int = 1,
    ) -> None:
        if not 0.0 <= fail_rate <= 1.0 or not 0.0 <= delay_rate <= 1.0:
            raise ValueError("fail_rate/delay_rate must be in [0, 1]")
        if not 0.0 <= kill_rate <= 1.0:
            raise ValueError("kill_rate must be in [0, 1]")
        if kill_attempts < 1:
            raise ValueError("kill_attempts must be >= 1")
        self.seed = seed
        self.fail_rate = fail_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.fail_first = fail_first
        self.exception = exception
        self.kill_rate = kill_rate
        self.kill_attempts = kill_attempts
        self._streams: dict[str, _NamedStream] = {}
        self._lock = threading.Lock()
        self.injected_failures = 0
        self.injected_delays = 0
        self.calls = 0
        #: optional duck-typed span collector (see repro.runtime.trace);
        #: when set, every injection that fires is recorded as a "chaos"
        #: span so a seeded fault scenario can be read back span-by-span
        self.trace: Any = None
        #: optional duck-typed metrics registry (``inc``-shaped, see
        #: repro.runtime.metrics): fired injections bump ``chaos_faults``
        #: / ``chaos_delays``.  Label-free on purpose — wrap names differ
        #: per backend (per-chunk streams under the process pool), so
        #: only the unlabelled totals are backend-comparable
        self.metrics: Any = None

    def _stream(self, name: str) -> _NamedStream:
        with self._lock:
            stream = self._streams.get(name)
            if stream is None:
                stream = self._streams[name] = _NamedStream(self.seed, name)
            return stream

    def _decide(self, name: str) -> tuple[bool, bool]:
        """(inject_failure, inject_delay) for the next call of ``name``."""
        stream = self._stream(name)
        with stream.lock:
            stream.calls += 1
            nth = stream.calls
            fail = nth <= self.fail_first or (
                self.fail_rate > 0.0 and stream.rng.random() < self.fail_rate
            )
            delay = self.delay_rate > 0.0 and stream.rng.random() < self.delay_rate
        with self._lock:
            self.calls += 1
            if fail:
                self.injected_failures += 1
            if delay:
                self.injected_delays += 1
        return fail, delay

    def wrap(self, fn: Callable[..., Any], name: str | None = None) -> Callable[..., Any]:
        """Return ``fn`` with fault injection at every call."""
        label = name or getattr(fn, "__name__", "callable")

        def chaotic(*args: Any, **kwargs: Any) -> Any:
            fail, delay = self._decide(label)
            if self.metrics is not None:
                if fail:
                    self.metrics.inc("chaos_faults")
                if delay:
                    self.metrics.inc("chaos_delays")
            if (fail or delay) and self.trace is not None:
                injected = "+".join(
                    k for k, hit in (("fail", fail), ("delay", delay)) if hit
                )
                self.trace.instant(
                    "chaos", label, -1, injected=injected, seed=self.seed
                )
            if delay and self.delay > 0:
                time.sleep(self.delay)
            if fail:
                raise self.exception(f"chaos[{self.seed}] fault in {label!r}")
            return fn(*args, **kwargs)

        chaotic.__name__ = f"chaos_{label}"
        return chaotic

    def should_kill(self, name: str, attempt: int = 1) -> bool:
        """Whether a seeded SIGKILL fires for this dispatch of ``name``.

        Decided from ``(seed, name, attempt)`` alone — no mutable stream
        state — so the verdict is identical no matter which worker claims
        the chunk, and the parent can replay it.  ``attempt`` counts
        dispatches of the same chunk (re-dispatch after a kill is attempt
        2): with the default ``kill_attempts=1`` only a chunk's *first*
        dispatch can be killed, so a seeded kill scenario always
        converges once recovery re-dispatches; raise ``kill_attempts`` to
        exercise restart-budget exhaustion.

        The caller (the process-pool worker) performs the actual
        ``os.kill(os.getpid(), SIGKILL)`` — this injector only decides.
        """
        if self.kill_rate <= 0.0 or attempt > self.kill_attempts:
            return False
        import random

        rng = random.Random(
            zlib.crc32(f"kill:{name}".encode("utf-8"))
            ^ (self.seed & 0xFFFFFFFF)
        )
        hit = False
        for _ in range(attempt):
            hit = rng.random() < self.kill_rate
        return hit

    def wrap_item(self, item: Any) -> None:
        """Inject into a runtime :class:`~repro.runtime.item.Item` (or a
        MasterWorker group's members) in place, preserving tuning state."""
        members = getattr(item, "items", None)
        if members is not None:  # a MasterWorker group
            for member in members:
                self.wrap_item(member)
            return
        item.fn = self.wrap(item.fn, name=item.name)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "calls": self.calls,
                "injected_failures": self.injected_failures,
                "injected_delays": self.injected_delays,
            }

    # ------------------------------------------------------------------
    # process-backend support: an injector holds locks and rng streams,
    # so it crosses a process boundary as its constructor arguments and
    # is rebuilt per worker; count deltas ship back and are folded in
    # parent-side, keeping conservation checks valid across backends.
    # ------------------------------------------------------------------
    def spec(self) -> dict[str, Any]:
        """Picklable constructor arguments for a worker-side rebuild."""
        out: dict[str, Any] = {
            "seed": self.seed,
            "fail_rate": self.fail_rate,
            "delay_rate": self.delay_rate,
            "delay": self.delay,
            "fail_first": self.fail_first,
            "kill_rate": self.kill_rate,
            "kill_attempts": self.kill_attempts,
        }
        if self.exception is not ChaosError:
            out["exception"] = self.exception
        return out

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "ChaosInjector":
        return cls(**spec)

    def drain(self) -> dict[str, int]:
        """The counts since the last drain, as a delta; reset them.

        The worker-side half of the per-chunk merge: a pool worker
        drains after each chunk, so the delta is that chunk's counts.
        """
        with self._lock:
            delta = {
                "calls": self.calls,
                "injected_failures": self.injected_failures,
                "injected_delays": self.injected_delays,
            }
            self.calls = self.injected_failures = self.injected_delays = 0
        return delta

    def absorb(self, delta: dict[str, int]) -> None:
        """Fold a worker's counter deltas into this (parent) injector."""
        with self._lock:
            self.calls += delta.get("calls", 0)
            self.injected_failures += delta.get("injected_failures", 0)
            self.injected_delays += delta.get("injected_delays", 0)
