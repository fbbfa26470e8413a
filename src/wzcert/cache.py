"""Best-effort disk cache for computed a_p profiles and eigen systems, and the
registry of in-process memos.

Entries are canonical JSON files keyed by their parameters and stamped with
the tool version and the cache schema; corruption or a mismatch of either
is a miss, which triggers recomputation and an overwrite.
Writes are atomic (temp file + rename), so concurrent scans may share a
cache directory: any writer of a key produces identical bytes.
"""

import functools
import json
import os
import tempfile

from . import CACHE_SCHEMA, TOOL_VERSION


class DiskCache:
    def __init__(self, root):
        self.root = str(root)

    def _path(self, namespace, key):
        name = "_".join(str(part) for part in key) + ".json"
        return os.path.join(self.root, namespace, name)

    def get(self, namespace, key):
        try:
            with open(self._path(namespace, key), "r", encoding="ascii") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                return None
            if doc.get("toolversion") != TOOL_VERSION:
                return None
            if doc.get("schema") != CACHE_SCHEMA:
                return None
            if doc.get("key") != list(key):
                return None
            return doc["value"]
        except (OSError, ValueError, KeyError):
            return None

    def put(self, namespace, key, value):
        doc = {"toolversion": TOOL_VERSION, "schema": CACHE_SCHEMA,
               "key": list(key), "value": value}
        # json.dumps with no indent runs the C encoder; json.dump to a file
        # always takes the pure-Python chunked one, for the same bytes
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        path = self._path(namespace, key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
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
