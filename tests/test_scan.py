"""The scan engine: one task per prime for every mode, largest prime first,
reports byte-identical across job counts, and CLI argument checks."""

import json
import multiprocessing

import pytest

from wzcert import cache, certify as cf, cli, hecke
from wzcert.cache import DiskCache
from wzcert.primes import primes_up_to


@pytest.fixture
def fresh_caches(tmp_path, isolated_cache):
    """Returns reset(name): empty in-memory memos and a new disk cache."""
    def reset(name):
        cache.set_cache(DiskCache(str(tmp_path / name)))
        cache.clear_memos()
    yield reset
    cache.set_cache(DiskCache(str(isolated_cache)))


def test_pool_size_clamped_and_largest_prime_first(monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size and the tasks
        it is given, and runs them in this process, forking nothing."""

        def __init__(self, processes):
            self.processes = processes
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks, chunksize=1):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    report = cf.scan_report(30, "nonordinary", jobs=1000)
    primes = [p for p in primes_up_to(30) if p > 5]
    [pool] = pools
    assert pool.processes == len(primes)
    assert [p for p, _modes in pool.tasks] == sorted(primes, reverse=True)
    assert [c.p for c in report.certificates] == primes
    # compared line by line: pytest's diff of two long strings runs for minutes
    assert cf.emit_report(report).split("\n") == cf.emit_report(
        cf.scan_report(30, "nonordinary", jobs=1)).split("\n")


def test_jobs_below_one_rejected(capsys):
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            cf.scan_report(30, "ordinary", jobs=jobs)
        assert cli.main(["scan", "--pmax", "30", "--mode", "ordinary",
                         "--jobs", str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs" in captured.err


def test_both_modes_need_out(capsys):
    assert cli.main(["scan", "--pmax", "30", "--mode", "both"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err


def test_both_mode_cli_matches_single_mode_scans(tmp_path, fresh_caches):
    fresh_caches("cli")
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--pmax", "60", "--mode", "both", "--jobs", "2",
                     "--out", str(out)]) == 0
    primes = [p for p in primes_up_to(60) if p > 5]
    for mode in cf.MODES:
        got = (tmp_path / f"scan.{mode}.json").read_text(encoding="ascii")
        assert [c["p"] for c in json.loads(got)["certificates"]] == primes
        fresh_caches(mode)
        want = cf.emit_report(cf.scan_report(60, mode, jobs=1))
        assert got.split("\n") == want.split("\n")


def test_both_mode_scan_decomposes_each_weight_once(tmp_path, fresh_caches,
                                                    monkeypatch):
    fresh_caches("cache")
    requested = set()
    raw_classes = hecke._raw_classes

    def recording(p, k, B):
        requested.add((p, k, B))
        return raw_classes(p, k, B)
    monkeypatch.setattr(hecke, "_raw_classes", recording)
    assert cli.main(["scan", "--pmax", "90", "--mode", "both", "--jobs", "1",
                     "--out", str(tmp_path / "scan.json")]) == 0
    info = raw_classes.cache_info()
    # more weights than the in-memory memo holds, so a second pass over the
    # primes would find the early ones evicted
    assert len(requested) > info.maxsize
    assert info.misses == len(requested)


def test_emit_report_splices_the_certificate_texts(fresh_caches):
    for jobs in (1, 2):
        fresh_caches(f"jobs{jobs}")
        reports = cf.scan(60, cf.MODES, jobs=jobs)
        assert [r.mode for r in reports] == list(cf.MODES)
        for report in reports:
            assert report.texts == [
                "\n".join("    " + line
                          for line in cf.emit_certificate(c)[:-1].split("\n"))
                for c in report.certificates]
            want = json.dumps(report.as_doc(), sort_keys=True, indent=2,
                              ensure_ascii=True) + "\n"
            # compared line by line, so a failure names the first bad line
            assert cf.emit_report(report).split("\n") == want.split("\n")
        assert reports[0].as_doc()["split_pair_primes"] == []
