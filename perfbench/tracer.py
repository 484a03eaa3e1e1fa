"""Layer tracing from outside the program: wrappers around public functions.

:class:`LayerTracer` replaces, for the duration of a ``with`` block, the
public functions and methods listed in :data:`TARGETS` with timing
wrappers, and restores the originals on exit.  Module-level functions
are replaced under every name any loaded ``repro`` module binds them to
(``from x import f`` copies the reference, so ``repro.api.engine``'s own
``materialize_candidates`` must be wrapped too, not only the defining
module's); methods are replaced on the class that defines them.

Each wrapped call is a span: ``(key, layer, start, end)`` on a
per-thread stack.  A span's *self time* is its duration minus the time
its child spans cover, so the self times of every span a request opens
sum to the time covered by its top-level spans; the rest of the
request's wall time is *unattributed*.  A call that re-enters a span key
already open on the same thread (a subclass ``fit`` calling the base
``fit``) opens no second span, so nothing is counted twice.

Spans and counters are kept in memory per request *tag*: the run loop
sets the tag on the client thread, and the ``DiscoveryEngine.discover``
wrapper sets it on engine worker threads (via :attr:`tag_of`), so work
done on the service's pool is charged to the request that caused it.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers, named by package under ``repro``.
LAYERS = (
    "server", "api", "core", "tasks", "ml",
    "discovery", "profiles", "kernels", "catalog",
)

# (target, span key, layer, counter hook name or None).  Targets are
# "module:function" or "module:Class.method"; a missing target is
# reported on stderr and skipped, so the benchmark keeps running when a
# later change moves a function (its metric then reads 0).
TARGETS = (
    ("repro.server.service:DiscoveryService.submit", "server.submit", "server", None),
    ("repro.api.engine:DiscoveryEngine.discover", "api.discover", "api", "discover"),
    ("repro.api.engine:DiscoveryEngine.open", "api.open", "api", None),
    ("repro.api.engine:DiscoveryEngine.prepare", "api.prepare", "api", None),
    ("repro.core.metam:Metam.run", "core.search", "core", None),
    ("repro.core.querying:QueryEngine.utility", "core.utility", "core", "utility"),
    ("repro.tasks.classification:ClassificationTask.utility", "tasks.utility", "tasks", None),
    ("repro.tasks.regression:RegressionTask.utility", "tasks.utility", "tasks", None),
    ("repro.tasks.causal.howto:HowToTask.utility", "tasks.utility", "tasks", None),
    ("repro.ml.preprocessing:prepare_features", "tasks.featurize", "tasks", None),
    ("repro.tasks.causal.discovery:dependent_columns", "tasks.ci", "tasks", None),
    ("repro.ml.forest:_BaseForest.fit", "ml.fit", "ml", "fit"),
    ("repro.ml.forest:RandomForestClassifier.fit", "ml.fit", "ml", "fit"),
    ("repro.ml.forest:RandomForestClassifier.predict", "ml.predict", "ml", None),
    ("repro.ml.forest:RandomForestClassifier.predict_proba", "ml.predict", "ml", None),
    ("repro.ml.forest:RandomForestRegressor.predict", "ml.predict", "ml", None),
    ("repro.discovery.join_path:Augmentation.apply", "discovery.join_apply", "discovery", "apply"),
    ("repro.discovery.join_path:Augmentation.materialize", "discovery.join_materialize", "discovery", "materialize"),
    ("repro.discovery.index:DiscoveryIndex.build", "discovery.index_build", "discovery", None),
    ("repro.discovery.index:DiscoveryIndex.compute_column_entries", "discovery.sign", "discovery", None),
    ("repro.discovery.index:DiscoveryIndex.compute_column_entry", "discovery.sign", "discovery", None),
    ("repro.discovery.lsh:LshIndex.insert", "discovery.lsh", "discovery", None),
    ("repro.discovery.lsh:LshIndex.insert_many", "discovery.lsh", "discovery", None),
    ("repro.discovery.lsh:LshIndex.query", "discovery.lsh", "discovery", None),
    ("repro.discovery.candidates:generate_candidates", "discovery.generate", "discovery", None),
    ("repro.discovery.candidates:materialize_candidates", "discovery.materialize", "discovery", "candidates"),
    ("repro.discovery.candidates:profile_candidates", "profiles.profile", "profiles", None),
    ("repro.catalog.catalog:ProfileCache.get", "profiles.cache_get", "profiles", "profile_cache"),
    ("repro.kernels.hashing:hash_strings", "kernels.hash", "kernels", "hash"),
    ("repro.catalog.catalog:Catalog.refresh", "catalog.refresh", "catalog", "refresh"),
    ("repro.catalog.catalog:Catalog.save", "catalog.save", "catalog", None),
    ("repro.catalog.catalog:Catalog.load", "catalog.load", "catalog", None),
    ("repro.catalog.backend:StoreBackend.read_bytes", "catalog.store_read", "catalog", "read"),
    ("repro.catalog.backend:StoreBackend.open_mmap", "catalog.store_read", "catalog", "read"),
    ("repro.catalog.backend:LocalFSBackend.open_read", "catalog.store_read", "catalog", "read"),
    ("repro.catalog.backend:LocalFSBackend.open_mmap", "catalog.store_read", "catalog", "read"),
    ("repro.catalog.backend:LocalFSBackend.write_bytes", "catalog.store_write", "catalog", "write"),
    ("repro.catalog.backend:LocalFSBackend.append_bytes", "catalog.store_write", "catalog", "write"),
    ("repro.catalog.backend:LocalFSBackend.write_stream", "catalog.store_write", "catalog", "write_stream"),
)

#: Layer of each span key.
LAYER_OF = {key: layer for _target, key, layer, _hook in TARGETS}


#: Tag of spans opened outside any request's timed window.
UNTIMED = object()


class RequestStats:
    """Everything one request's spans recorded."""

    __slots__ = ("inclusive", "self_time", "counts", "top", "runs")

    def __init__(self):
        self.inclusive = defaultdict(float)  # span key -> seconds
        self.self_time = defaultdict(float)  # span key -> seconds
        self.counts = defaultdict(int)  # counter name -> count
        self.top = 0.0  # seconds covered by top-level spans
        self.runs = []  # DiscoveryRun objects the engine returned


class _Frame:
    __slots__ = ("key", "layer", "start", "children")

    def __init__(self, key, layer, start):
        self.key = key
        self.layer = layer
        self.start = start
        self.children = 0.0


def _size_of(handle) -> int:
    try:
        return os.fstat(handle.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


class LayerTracer:
    """Installs the layer wrappers while active (``with tracer:``)."""

    def __init__(self, tag_of=None):
        #: ``request -> tag`` for engine worker threads (``None`` keeps
        #: whatever tag the thread already has).
        self.tag_of = tag_of
        self.stats = {}  # tag -> RequestStats
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # -- request tagging -------------------------------------------------
    def set_tag(self, tag) -> None:
        self._local.tag = tag

    @contextmanager
    def untimed(self):
        """Charge spans opened inside to no request (output checks that
        run outside a request's timed window)."""
        previous = getattr(self._local, "tag", None)
        self._local.tag = UNTIMED
        try:
            yield
        finally:
            self._local.tag = previous

    def _bucket(self):
        tag = getattr(self._local, "tag", None)
        stats = self.stats.get(tag)
        if stats is None:
            with self._lock:
                stats = self.stats.setdefault(tag, RequestStats())
        return stats

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans -----------------------------------------------------------
    def _open(self, key, layer):
        stack = self._stack()
        for frame in stack:
            if frame.key == key:
                return None  # re-entry: the outer span already covers it
        frame = _Frame(key, layer, time.perf_counter())
        stack.append(frame)
        return frame

    def _close(self, frame, counts=None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].children += duration
        stats = self._bucket()
        with self._lock:
            stats.inclusive[frame.key] += duration
            stats.self_time[frame.key] += duration - frame.children
            if not stack:
                stats.top += duration
            if counts:
                for name, value in counts:
                    stats.counts[name] += value

    # -- counters --------------------------------------------------------
    def _counts(self, hook, args, result, before):
        """Counter increments for one finished call of a hooked target."""
        if hook == "utility":
            engine = args[0]
            return (("core.utility_calls", 1),
                    ("core.queries", engine.queries - before))
        if hook == "fit":
            x = args[1]
            shape = getattr(x, "shape", None)
            if shape is not None and len(shape) == 2:
                cells = int(shape[0]) * int(shape[1])
            else:
                cells = len(x) * (len(x[0]) if len(x) else 0)
            return (("ml.forest_fits", 1), ("ml.fit_cells", cells))
        if hook == "apply":
            return (("discovery.rows_joined", result.num_rows),)
        if hook == "materialize":
            return (("discovery.rows_joined", len(result)),)
        if hook == "candidates":
            return (("discovery.candidates", len(result)),)
        if hook == "profile_cache":
            return (("profiles.cache_lookups", 1),
                    ("profiles.cache_hits", int(result is not None)))
        if hook == "hash":
            return (("kernels.values_hashed", len(args[0])),)
        if hook == "refresh":
            return (("catalog.tables_resigned",
                     len(result.added) + len(result.updated)),)
        if hook == "read":
            size = len(result) if isinstance(result, (bytes, memoryview)) \
                else _size_of(result)
            return (("catalog.store_reads", 1), ("catalog.bytes_read", size))
        if hook == "write":
            return (("catalog.store_writes", 1),
                    ("catalog.bytes_written", len(args[2])))
        if hook == "discover":
            return ()
        raise ValueError(f"unknown counter hook {hook!r}")

    def _wrap(self, original, key, layer, hook):
        tracer = self

        if hook == "write_stream":
            return self._wrap_stream(original, key, layer)

        def wrapper(*args, **kwargs):
            frame = tracer._open(key, layer)
            if frame is None:
                return original(*args, **kwargs)
            before = args[0].queries if hook == "utility" else 0
            previous_tag = None
            if hook == "discover" and tracer.tag_of is not None:
                previous_tag = getattr(tracer._local, "tag", None)
                if previous_tag is None:
                    tracer.set_tag(tracer.tag_of(args[1]))
            result, returned = None, False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                counts = ()
                # A utility query that raises (budget exhausted) was
                # still a call; other hooks count completed calls only.
                if hook is not None and (returned or hook == "utility"):
                    counts = tracer._counts(hook, args, result, before)
                tracer._close(frame, counts)
                if hook == "discover":
                    if returned:
                        tracer._bucket().runs.append(result)
                    if tracer.tag_of is not None and previous_tag is None:
                        tracer.set_tag(None)

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_stream(self, original, key, layer):
        tracer = self

        class _Stream:
            def __init__(self, inner, path):
                self.inner = inner
                self.path = path
                self.frame = None

            def __enter__(self):
                self.frame = tracer._open(key, layer)
                return self.inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    if self.frame is not None:
                        size = (os.path.getsize(self.path)
                                if os.path.exists(self.path) else 0)
                        tracer._close(self.frame, (
                            ("catalog.store_writes", 1),
                            ("catalog.bytes_written", size),
                        ))

        def wrapper(backend, path, *args, **kwargs):
            return _Stream(original(backend, path, *args, **kwargs), path)

        wrapper.__wrapped__ = original
        return wrapper

    # -- install / restore ----------------------------------------------
    def __enter__(self):
        for target, key, layer, hook in TARGETS:
            module_name, _, attr = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    class_name, method = attr.split(".")
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[method]
                else:
                    owner, method = None, attr
                    raw = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: trace target {target} not found; "
                      f"its metric reads 0", file=sys.stderr)
                continue
            if owner is not None:
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, key, layer, hook))
                else:
                    patched = self._wrap(raw, key, layer, hook)
                setattr(owner, method, patched)
                self._restore.append((owner, method, raw))
                continue
            patched = self._wrap(raw, key, layer, hook)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                namespace = getattr(loaded, "__dict__", None) or {}
                for binding, value in list(namespace.items()):
                    if value is raw:
                        setattr(loaded, binding, patched)
                        self._restore.append((loaded, binding, raw))
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        return False
