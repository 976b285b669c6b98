"""Outside-in layer tracing for the benchmark's traced runs.

The program is never edited: :class:`Tracer` swaps public functions and
methods of each layer for timing wrappers while a traced run is active,
and :meth:`Tracer.uninstall` puts the original objects back, so untraced
runs execute exactly the functions the program ships.

Times are *self* times.  Each thread keeps a stack of open spans; when a
span closes, its duration is charged to the parent as child time, and the
span's own self time is its duration minus that child time.  A *root*
span (:meth:`Tracer.root`) marks the wall time a workload is timed over;
the root's self time is whatever no wrapped call covered, which is
reported as ``nn.unattributed_s``.  Only spans inside a root add to a
layer's self time, so the layers' self times plus the roots' own add up
to the roots' wall time.  Spans opened with no root open on their thread
(the serving queue's worker thread, say) still count calls and keep
durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Self-time accounting plus install/uninstall of layer wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self.root_wall = 0.0
        self.root_self = 0.0
        self.attributed = 0.0

    # -- accounting ----------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _roots_open(self) -> int:
        return getattr(self._tls, "roots", 0)

    def parent_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame, keep_duration: bool = False) -> None:
        end = self.clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        own = duration - frame.child
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.calls[frame.name] += 1
            if keep_duration:
                self.durations[frame.name].append(duration)
            if self._roots_open():
                self.self_s[frame.name] += own
                self.attributed += own

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.durations[name].append(value)

    class _Root:
        def __init__(self, tracer: "Tracer") -> None:
            self.tracer = tracer

        def __enter__(self) -> "Tracer._Root":
            tracer = self.tracer
            if tracer._stack():
                raise RuntimeError("a root span must be outermost on its thread")
            tracer._tls.roots = 1
            self.frame = _Frame("root", tracer.clock())
            tracer._stack().append(self.frame)
            return self

        def __exit__(self, *exc_info) -> None:
            tracer = self.tracer
            end = tracer.clock()
            popped = tracer._stack().pop()
            if popped is not self.frame:
                raise RuntimeError("root span closed out of order")
            tracer._tls.roots = 0
            with tracer._lock:
                tracer.root_wall += end - self.frame.start
                tracer.root_self += end - self.frame.start - self.frame.child

    def root(self) -> "Tracer._Root":
        """Context marking the wall time that self times reconcile against."""
        return Tracer._Root(self)

    def forget(self, name: str) -> None:
        """Drop the durations kept so far for ``name``."""
        with self._lock:
            self.durations.pop(name, None)

    # -- wrappers --------------------------------------------------------
    def timed(
        self,
        fn: Callable,
        name: str,
        keep_duration: bool = False,
        on_result: Optional[Callable] = None,
        when: Optional[Callable[["Tracer"], bool]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``on_result(tracer, args, result)`` runs after the span closes, to
        record counts; ``when(tracer)`` returning false skips the span, so
        the call's time stays with its caller.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(tracer):
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, keep_duration)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`uninstall`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap a method defined on ``cls`` itself (plain or classmethod)."""
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.timed(original.__func__, name, **options))
        else:
            replacement = self.timed(original, name, **options)
        self.patch(cls, attr, replacement)

    def wrap_function(self, fn: Callable, name: str, package: str = "repro", **options):
        """Wrap a module-level function at every module that holds it.

        ``from a import f`` copies the reference into the importing module,
        so each ``repro.*`` module whose attribute *is* ``fn`` is patched.
        """
        wrapped = self.timed(fn, name, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapped)
        return wrapped

    def installed(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    def uninstall(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Untraced:
    """What a workload gets instead of a :class:`Tracer` in untraced runs."""

    def root(self) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def forget(self, name: str) -> None:
        pass


def defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` in their own body."""
    found, seen, todo = [], set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls) and inspect.isfunction(vars(cls)[attr]):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
