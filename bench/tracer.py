"""Per-layer tracing of wzcert, installed from outside the program.

`install()` replaces layer entry points with timing wrappers.  A function
imported by name (`from .fflinalg import mat_nullspace`) is bound in the
importing module too, so every wzcert module attribute that is the original
function object is replaced, and the classes `DiskCache` and `ExtFieldElem`
are patched in place.  No file of the program changes.

Most boundaries keep aggregates only (calls, inclusive and self seconds):
`canonical_modulus` and `ExtFieldElem` see hundreds of thousands of calls,
and a record per call would slow the traced run and distort its proportions.
Scans, per-prime certification, report emission and the CLI keep one span
record each (name, start, end, parent span, run id), which gives per-prime
latency and worker idle time.

Pool workers are forked from a traced process and inherit the wrappers.  They
exit without running `atexit`, so each worker rewrites its whole state to
`<spans_dir>/<pid>.json` after every task; the main process writes its own
file at the end, and `merge()` joins them all.  Timestamps come from
`time.monotonic()`, one clock for every process on the machine.
"""

import functools
import importlib
import json
import os
import time

MODULES = ("cache", "certify", "cli", "exactarith", "ffpoly", "fflinalg",
           "galoischecks", "hecke", "ordscan", "primes", "qseries", "tame")

# (module, function, stat name); functions sharing a stat name are summed
AGGREGATED = (
    ("qseries", "miller_basis", "qseries.miller_basis"),
    ("fflinalg", "mat_nullspace", "fflinalg.mat_nullspace"),
    ("fflinalg", "mat_charpoly", "fflinalg.mat_charpoly"),
    ("fflinalg", "rref", "fflinalg.rref"),
    ("ffpoly", "factor_monic", "ffpoly.factor_monic"),
    ("ffpoly", "canonical_modulus", "ffpoly.canonical_modulus"),
    ("ffpoly", "embed_root", "ffpoly.embed_root"),
    ("ffpoly", "split_roots", "ffpoly.split_roots"),
    ("hecke", "ap_profile", "hecke.ap_profile"),
    ("galoischecks", "split_verdict", "galoischecks.split_verdict"),
    ("galoischecks", "large_image_verdict", "galoischecks.large_image_verdict"),
)
KEYED = (  # distinct argument tuples are recorded as well
    ("tame", "lift_check_ordinary", "tame.lift_check"),
    ("tame", "lift_check_nonordinary", "tame.lift_check"),
)
SPANNED = (
    ("cli", "main", "cli.main"),
    ("certify", "scan_report", "certify.scan_report"),
    ("certify", "emit_report", "certify.emit_report"),
    ("certify", "certify", "certify.certify"),
)


class Tracer:
    def __init__(self, run_id, spans_dir):
        self.run_id = run_id
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        self._reset(parent=None)

    def _reset(self, parent):
        self.pid = os.getpid()
        self.root_parent = parent
        self.stack = []        # frames: [seconds covered by children, span id]
        self.agg = {}          # stat name -> [calls, inclusive s, self s]
        self.counts = {}       # counter name -> int
        self.keys = {}         # stat name -> {repr(args): info}
        self.spans = []
        self.next_span = 0

    def after_fork(self):
        """In a forked worker: start empty, parented to the forking span."""
        self._reset(parent=self._current_span())

    def _current_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return self.root_parent

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, on_result=None, span_attrs=None):
        """Time fn under `name`; self time excludes time in wrapped callees."""
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            span_id = None
            if span_attrs is not None:
                span_id = f"{self.pid}:{self.next_span}"
                self.next_span += 1
                parent = self._current_span()
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                a = self.agg.setdefault(name, [0, 0.0, 0.0])
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
            if span_id is not None:
                self.spans.append({
                    "id": span_id, "parent": parent, "run": self.run_id,
                    "name": name, "pid": self.pid, "start": start, "end": end,
                    "attrs": span_attrs(args, kwargs)})
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def remember(self, name, args, kwargs, info=None):
        key = repr((args, sorted(kwargs.items())))
        self.keys.setdefault(name, {}).setdefault(key, info)

    def snapshot(self):
        return {"run": self.run_id, "pid": self.pid, "agg": self.agg,
                "counts": self.counts, "keys": self.keys, "spans": self.spans}

    def flush(self):
        path = os.path.join(self.spans_dir, f"{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def _rebind(original, replacement):
    """Point every wzcert module attribute bound to `original` at `replacement`."""
    for modname in MODULES:
        mod = importlib.import_module(f"wzcert.{modname}")
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(run_id, spans_dir):
    """Wrap the layer boundaries of an imported wzcert; returns the Tracer."""
    tracer = Tracer(run_id, spans_dir)
    mods = {m: importlib.import_module(f"wzcert.{m}") for m in MODULES}

    def patch(modname, fname, name, **kw):
        original = getattr(mods[modname], fname)
        _rebind(original, tracer.wrap(original, name, **kw))

    for modname, fname, name in AGGREGATED:
        patch(modname, fname, name)
    for modname, fname, name in KEYED:
        patch(modname, fname, name,
              on_result=lambda a, k, r, n=name: tracer.remember(n, a, k))

    def eigensystems_seen(args, kwargs, systems):
        tracer.remember("hecke.eigensystems", args, kwargs, info=[
            len(systems), max((s.d for s in systems), default=0),
            sum(1 for s in systems if s.overflow)])
    patch("hecke", "eigensystems", "hecke.eigensystems",
          on_result=eigensystems_seen)

    def companion_seen(args, kwargs, found):
        tracer.count("galoischecks.companion_match.hits", found is not None)
    patch("galoischecks", "companion_match", "galoischecks.companion_match",
          on_result=companion_seen)

    span_attrs = {
        "certify.certify": lambda a, k: {"p": a[0], "mode": a[1]},
        "certify.scan_report": lambda a, k: {
            "pmax": a[0], "mode": a[1], "jobs": k.get("jobs", a[2] if len(a) > 2 else 1)},
    }
    for modname, fname, name in SPANNED:
        patch(modname, fname, name,
              span_attrs=span_attrs.get(name, lambda a, k: {}))

    # pool task: flush the worker's state after each prime, since pool
    # workers exit without running atexit handlers
    task = mods["certify"]._certify_task

    @functools.wraps(task)
    def certify_task(*args, **kwargs):
        try:
            return task(*args, **kwargs)
        finally:
            if tracer.pid != tracer.main_pid:
                tracer.flush()
    _rebind(task, certify_task)

    DiskCache = mods["cache"].DiskCache

    def get_seen(args, kwargs, value):
        namespace = args[1]
        tracer.count(f"cache.get.{namespace}")
        tracer.count(f"cache.get.{namespace}.hit", value is not None)

    def put_seen(args, kwargs, _value):
        cache, namespace, key = args[:3]
        try:  # bytes on disk; DiskCache swallows write errors
            size = os.path.getsize(cache._path(namespace, key))
        except OSError:
            size = 0
        tracer.count("cache.put.bytes", size)

    DiskCache.get = tracer.wrap(DiskCache.get, "cache.get", on_result=get_seen)
    DiskCache.put = tracer.wrap(DiskCache.put, "cache.put", on_result=put_seen)

    ExtFieldElem = mods["exactarith"].ExtFieldElem
    post_init = ExtFieldElem.__post_init__

    def counted_post_init(elem):
        tracer.count("exactarith.ExtFieldElem.created")
        post_init(elem)
    ExtFieldElem.__post_init__ = counted_post_init

    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def merge(spans_dir):
    """Join the state files of one traced run (main process and workers)."""
    merged = {"run": None, "pids": [], "agg": {}, "counts": {}, "keys": {},
              "spans": []}
    for fname in sorted(os.listdir(spans_dir)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(spans_dir, fname), encoding="ascii") as fh:
            part = json.load(fh)
        if merged["run"] not in (None, part["run"]):
            raise ValueError(f"{fname} belongs to run {part['run']}")
        merged["run"] = part["run"]
        merged["pids"].append(part["pid"])
        for name, (calls, incl, self_s) in part["agg"].items():
            a = merged["agg"].setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += incl
            a[2] += self_s
        for name, n in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
        for name, seen in part["keys"].items():
            merged["keys"].setdefault(name, {}).update(seen)
        merged["spans"].extend(part["spans"])
    return merged
