import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def isolated_cache(tmp_path_factory):
    """Point the disk cache at a session-local directory."""
    path = tmp_path_factory.mktemp("wzcache")
    os.environ["WZ_CACHE_DIR"] = str(path)   # for CLI subprocesses
    from wzcert import cache
    cache.set_cache(cache.DiskCache(str(path)))
    yield path
