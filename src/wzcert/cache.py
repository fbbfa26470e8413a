"""Best-effort disk cache for computed a_p profiles, eigen systems and
canonical moduli, and the registry of in-process memos.

Every key starts with the prime p, and all of p's entries live in one
canonical JSON file, `<root>/<p>.json`, stamped with the tool version, the
cache schema and p.  `get` reads a prime's file at most once and then serves
its entries from memory; `put` records an entry in memory.  The file is
written when a function decorated with `persist` returns or raises: the file
is read again, the new entries are merged into it, and the result goes to a
temp file that is renamed over it.  Then every entry held in memory is
released.  A file that does not parse or carries other stamps reads as empty,
and an entry whose key does not match is a miss; either triggers
recomputation and an overwrite.

Processes may share a cache directory.  Two that merge one prime's file at
once can lose each other's new entries (the later rename wins), but a file is
never torn, and every writer of a key produces identical bytes.
"""

import functools
import json
import os
import tempfile

from . import CACHE_SCHEMA, TOOL_VERSION


def _name(key):
    return "_".join(str(part) for part in key)


class DiskCache:
    def __init__(self, root):
        self.root = str(root)
        self._held = {}     # p -> {namespace: {name: entry}}: p's file, and puts
        self._new = {}      # p -> {namespace: {name: entry}} put since the last flush

    def _path(self, namespace, key):
        """The file of the prime key[0]; every namespace shares it."""
        return os.path.join(self.root, f"{key[0]}.json")

    def _read(self, p):
        """The entries in p's file, {namespace: {name: entry}}; empty when the
        file is missing, does not parse or carries other stamps."""
        try:
            with open(self._path(None, (p,)), "r", encoding="ascii") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not (isinstance(doc, dict) and doc.get("toolversion") == TOOL_VERSION
                and doc.get("schema") == CACHE_SCHEMA and doc.get("p") == p
                and isinstance(doc.get("entries"), dict)):
            return {}
        return {ns: items for ns, items in doc["entries"].items()
                if isinstance(items, dict)}

    def _entries(self, p):
        """p's entries held in memory, read from its file on first use."""
        held = self._held.get(p)
        if held is None:
            held = self._held[p] = self._read(p)
        return held

    def get(self, namespace, key):
        """The value stored under key, or None.  The value is held, not
        copied: callers must not change it."""
        entry = self._entries(key[0]).get(namespace, {}).get(_name(key))
        if not isinstance(entry, dict) or entry.get("key") != list(key):
            return None
        return entry.get("value")

    def put(self, namespace, key, value):
        """Store value under key in memory; `flush` writes it to disk."""
        entry, name = {"key": list(key), "value": value}, _name(key)
        self._entries(key[0]).setdefault(namespace, {})[name] = entry
        self._new.setdefault(key[0], {}).setdefault(namespace, {})[name] = entry

    def flush(self):
        """Merge each prime's new entries into its file as it is now, and
        release every entry held in memory."""
        new, self._new, self._held = self._new, {}, {}
        for p, entries in new.items():
            merged = self._read(p)
            for namespace, items in entries.items():
                merged.setdefault(namespace, {}).update(items)
            self._write(p, merged)

    def _write(self, p, entries):
        doc = {"toolversion": TOOL_VERSION, "schema": CACHE_SCHEMA, "p": p,
               "entries": entries}
        # json.dumps with no indent runs the C encoder; json.dump to a file
        # always takes the pure-Python chunked one, for the same bytes
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f"{p}.", suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, self._path(None, (p,)))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


_UNSET = object()
_active = _UNSET


def get_cache():
    """The active cache: WZ_CACHE_DIR if set, else the user cache directory."""
    global _active
    if _active is _UNSET:
        root = os.environ.get("WZ_CACHE_DIR")
        if not root:
            base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
                os.path.expanduser("~"), ".cache")
            root = os.path.join(base, "wzcert")
        _active = DiskCache(root)
    return _active


def set_cache(cache):
    """Install a specific DiskCache."""
    global _active
    _active = cache


def persist(fn):
    """fn, made to flush the active cache when it returns or raises: a run
    writes each prime's file once, however many entries it put."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            get_cache().flush()
    return run


_memos = []


def memo(maxsize=None):
    """functools.lru_cache that registers the function for `clear_memos`.

    Arguments must be hashable, and every caller gets the same result object.
    """
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        _memos.append(cached)
        return cached
    return decorate


def clear_memos():
    """Empty every in-process memo (the disk cache is untouched)."""
    for cached in _memos:
        cached.cache_clear()
