"""The disk cache keeps one file per prime: how many files a run leaves, how
often it opens them, and what concurrent writers of one file can do."""

import json
import os
import pathlib
import subprocess
import sys

from wzcert import cache, certify as cf, cli, ffpoly
from wzcert.cache import DiskCache

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_cold_certify_writes_one_file_and_the_warm_rerun_opens_it_once(
        tmp_path, isolated_cache, monkeypatch):
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        cold = cf.emit_certificate(cf.certify(107, "ordinary"))
        assert os.listdir(tmp_path) == ["107.json"]

        opened, puts = [], []
        real_open, real_put = open, DiskCache.put

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.relpath(path, tmp_path))
            return real_open(path, *args, **kwargs)

        def recording_put(self, *args):
            puts.append(args[:2])
            return real_put(self, *args)
        monkeypatch.setattr(cache, "open", recording_open, raising=False)
        monkeypatch.setattr(DiskCache, "put", recording_put)
        cache.clear_memos()
        assert cf.emit_certificate(cf.certify(107, "ordinary")) == cold
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))
    assert opened == ["107.json"]
    assert puts == []
    assert os.listdir(tmp_path) == ["107.json"]


def test_eigenform_command_persists_its_moduli(tmp_path, isolated_cache, capsys):
    # S_24 mod 23 is one class of degree 2, whose field needs a modulus
    cache.set_cache(DiskCache(str(tmp_path)))
    try:
        cache.clear_memos()
        assert cli.main(["eigenform", "--weight", "24", "--prec", "3",
                         "--modp", "23"]) == 0
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))
    assert "degree 2" in capsys.readouterr().out
    assert os.listdir(tmp_path) == ["23.json"]
    assert DiskCache(str(tmp_path)).get("modulus", (23, 2)) == list(
        ffpoly.canonical_modulus(23, 2))


WRITER = """
import os, sys, time
from wzcert.cache import DiskCache

root, tag, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
open(os.path.join(root, tag + ".ready"), "w").close()
deadline = time.monotonic() + 30
while len([f for f in os.listdir(root) if f.endswith(".ready")]) < 2:
    if time.monotonic() > deadline:
        sys.exit("the other writer never started")
    time.sleep(0.001)
disk = DiskCache(os.path.join(root, "cache"))
for i in range(rounds):
    disk.put("modulus", (7, tag, i), [[tag, i, j] for j in range(200)])
    disk.flush()
"""


def test_concurrent_writers_lose_entries_but_never_corrupt_one(tmp_path):
    rounds = 60
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-c", WRITER, str(tmp_path), tag,
                               str(rounds)], env=env, stderr=subprocess.PIPE)
             for tag in ("a", "b")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()[-2000:]
    assert os.listdir(tmp_path / "cache") == ["7.json"]     # no temp file is left
    disk = DiskCache(str(tmp_path / "cache"))
    with open(disk._path("modulus", (7,)), encoding="ascii") as fh:
        text = fh.read()
    entries = json.loads(text)["entries"]["modulus"]
    stored = {f"7_{tag}_{i}": {"key": [7, tag, i],
                               "value": [[tag, i, j] for j in range(200)]}
              for tag in ("a", "b") for i in range(rounds)}
    assert entries and set(entries) <= set(stored)
    for name in entries:    # each entry left is its writer's bytes
        compact = json.dumps(stored[name], sort_keys=True, separators=(",", ":"))
        assert f'"{name}":{compact}' in text
    # the last rename holds its writer's last entry
    assert {f"7_a_{rounds - 1}", f"7_b_{rounds - 1}"} & set(entries)
