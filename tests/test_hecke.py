import dataclasses
import json
import os

import pytest

import wzcert
from wzcert import cache, certify as cf, cli, fflinalg, ffpoly, hecke, primes, qseries
from wzcert.cache import DiskCache
from wzcert.qseries import PrecisionError, delta, dim_cusp

from oracles import hecke_coeff, hecke_matrix, tp_det_modp


def test_default_bound():
    assert hecke.default_bound(107) == 13
    assert hecke.default_bound(151) == 14
    assert hecke.default_bound(17) == 13


def test_hecke_coeff_formula():
    d = delta(40)
    # a_1(T_m f) = a_m(f)
    for m in (2, 3, 5, 7, 12):
        assert hecke_coeff(d, m, 1) == d.coeff(m)
    # gcd(2,3) = 1: a_6 = a_2 a_3 for the eigenform Delta
    assert hecke_coeff(d, 2, 3) == d.coeff(6) == -6048 == (-24) * 252
    # instantiation at m = n = 2: a_2(T_2 f) = a_4 + 2^(k-1) a_1
    assert hecke_coeff(d, 2, 2) == d.coeff(4) + 2**11 * d.coeff(1)
    with pytest.raises(PrecisionError):
        hecke_coeff(d, 7, 6)


def test_hecke_matrix_examples():
    assert hecke_matrix(26, 107).entries == ((35830422465487817813321292,),)
    assert hecke_matrix(12, 2).entries == ((-24,),)
    assert hecke_matrix(10, 2).entries == ()
    hm = hecke_matrix(24, 2)
    assert len(hm.entries) == 2


def test_exact_ap_dim1():
    assert hecke.exact_ap_dim1(26, 107) == 35830422465487817813321292
    assert hecke.exact_ap_dim1(26, 2) == -48
    assert hecke.exact_ap_dim1(12, 2) == -24
    with pytest.raises(ValueError):
        hecke.exact_ap_dim1(24, 5)


def test_exact_ap_dim1_is_ramanujan_tau():
    tau = {7: -16744, 11: 534612, 13: -577738, 17: -6905934, 19: 10661420,
           23: 18643272}
    assert {p: hecke.exact_ap_dim1(12, p) for p in tau} == tau


def test_exact_ap_dim1_across_power_of_two_precisions():
    # each pair of primes lies on both sides of a step of the series' precision
    weights = [k for k in range(12, 40, 2) if dim_cusp(k) == 1]
    assert weights == [12, 16, 18, 20, 22, 26]
    for p in (61, 67, 127, 131, 251, 257):
        for k in weights:
            want = qseries.miller_basis(k, p + 2).forms[0].coeff(p)
            assert hecke.exact_ap_dim1(k, p) == want, (p, k)


def test_eigensystems_107_26():
    systems = hecke.eigensystems(107, 26, 13)
    assert len(systems) == 1
    s = systems[0]
    assert s.d == 1 and s.mult == 1 and s.semisimple_action
    assert s.field.coords(s.values[2]) == ((-48) % 107,) == (59,)
    assert s.field.coords(s.ap) == (106,)
    assert s.ordinary is True


def test_eigensystems_79_38_nonordinary():
    systems = hecke.eigensystems(79, 38, 13)
    assert any(not any(s.field.coords(s.ap)) for s in systems)
    assert sum(s.d * s.mult for s in systems) == dim_cusp(38)


def test_eigensystems_empty_and_validation():
    assert hecke.eigensystems(107, 10, 13) == []
    with pytest.raises(ValueError):
        hecke.eigensystems(5, 12)
    with pytest.raises(ValueError):
        hecke.eigensystems(107, 13)
    with pytest.raises(ValueError):
        hecke.eigensystems(107, 12, 1)


def test_eigensystem_beyond_degree_8_is_computed_in_full():
    # dim S_112 = 9 and T_2 is irreducible mod 127: one class of degree 9
    systems = hecke.eigensystems(127, 112, 13)
    assert len(systems) == 1
    s = systems[0]
    assert s.d == 9 and not s.overflow
    assert sorted(s.values) == [2, 3, 5, 7, 11, 13]
    assert all(len(s.field.coords(v)) == 9 for v in s.values.values())
    assert len(s.field.coords(s.ap)) == 9


def test_eigenvalues_live_in_canonical_field():
    s = next(s for s in hecke.eigensystems(41, 24, 13) if s.d == 2)
    a2 = s.values[2]
    K = s.field
    assert K.modulus == ffpoly.canonical_field(41, 2).modulus
    assert (K.p, K.degree) == (41, 2) and len(K.coords(a2)) == 2
    # a_2 + Frob(a_2) must be the trace of the exact T_2 matrix mod 41
    exact = hecke_matrix(24, 2).entries
    trace = sum(exact[i][i] for i in range(2)) % 41
    assert K.add(a2, K.frob(a2)) == K.from_int(trace)


def test_commutativity_exact():
    for k in range(12, 62, 2):
        if dim_cusp(k) == 0:
            continue
        ms = [hecke_matrix(k, m).entries for m in (2, 3, 5, 7)]

        def mul(A, B):
            n = len(A)
            return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(n))
                               for j in range(n)) for i in range(n))

        for A in ms:
            for B in ms:
                assert mul(A, B) == mul(B, A), k


def test_oracle_equivalence_smoke():
    # full grid runs in the acceptance suite; spot-check small primes here
    for p in (7, 11, 17, 23):
        for k in range(12, p + 20, 2):
            if dim_cusp(k) == 0:
                continue
            prof = hecke.ap_profile(p, k)
            assert any(z for _, z, _ in prof) == (tp_det_modp(p, k) == 0)


def test_dim1_exact_consistency():
    for k in (12, 16, 18, 20, 22, 26):
        for p in (11, 17, 29, 43, 107):
            s = hecke.eigensystems(p, k, 13)[0]
            assert s.field.coords(s.ap) == (hecke.exact_ap_dim1(k, p) % p,)


def test_multiplicativity_a6():
    for p in (17, 41):
        for k in range(12, 42, 2):
            if dim_cusp(k) == 0:
                continue
            for block in hecke.expansions(p, k, 7):
                K = ffpoly.canonical_field(p, block["d"])
                c = [K.from_coords(t) for t in block["coeffs"]]
                assert K.mul(c[2], c[3]) == c[6], (p, k)


def test_expansions_normalized():
    for block in hecke.expansions(107, 26, 4):
        assert block["coeffs"][0] == (0,)
        assert block["coeffs"][1] == (1,)


def test_disk_cache_roundtrip():
    a = hecke.eigensystems(43, 24, 13)
    cache.clear_memos()
    b = hecke.eigensystems(43, 24, 13)   # served from disk
    assert a == b


def test_cache_entry_is_one_compact_json_write(tmp_path):
    # every entry of p lives in p's one file, written as one compact JSON string
    disk = DiskCache(str(tmp_path))
    key = (107, 26, 13)
    value = [s.as_doc() for s in hecke.eigensystems(*key)]
    modulus = list(ffpoly.canonical_modulus(107, 2))
    disk.put("eigsys", key, value)
    disk.put("modulus", (107, 2), modulus)
    assert os.listdir(tmp_path) == []       # nothing is written before the flush
    disk.flush()
    doc = {"toolversion": wzcert.TOOL_VERSION, "schema": wzcert.CACHE_SCHEMA,
           "p": 107, "entries": {
               "eigsys": {"107_26_13": {"key": list(key), "value": value}},
               "modulus": {"107_2": {"key": [107, 2], "value": modulus}}}}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert os.listdir(tmp_path) == ["107.json"]
    assert disk._path("eigsys", key) == disk._path("modulus", (107, 2))
    with open(disk._path("eigsys", key), "rb") as fh:
        assert fh.read() == text.encode("ascii")
    assert DiskCache(str(tmp_path)).get("eigsys", key) == value


def _cached_entry(path, namespace, key):
    """The entry {"key", "value"} of key in the per-prime file at path."""
    with open(path, encoding="ascii") as fh:
        return json.load(fh)["entries"][namespace]["_".join(map(str, key))]


def test_clear_memos_empties_every_memo(tmp_path, isolated_cache):
    cache.set_cache(DiskCache(str(tmp_path)))   # empty: every layer computes
    try:
        hecke.eigensystems(41, 24, 13)
        hecke.exact_ap_dim1(12, 41)
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))
    memos = [hecke._basis_rows, hecke._raw_classes, hecke._systems, hecke._dim1_form,
             hecke.witness_primes, ffpoly.canonical_modulus, ffpoly.canonical_field,
             ffpoly.embed_root, qseries._tables, primes.is_prime]
    assert all(m in cache._memos for m in memos)
    assert [m for m in memos if not m.cache_info().currsize] == []
    cache.clear_memos()
    assert [m for m in cache._memos if m.cache_info().currsize] == []


def test_malformed_eigsys_entry_is_recomputed(tmp_path, isolated_cache, monkeypatch):
    # the key certify_ordinary(107) uses for weight 26
    key = (107, 26, 13)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = hecke.eigensystems(107, 26, 13)
        disk.flush()
        path = disk._path("eigsys", key)
        with open(path, encoding="ascii") as fh:
            good = fh.read()
        item = _cached_entry(path, "eigsys", key)["value"][0]

        def degree(d, n):
            """The entry with degree d and n coordinates (in [0, p)) a value."""
            pad = lambda coords: (coords + ["0"] * n)[:n]
            return dict(item, d=d, ap=pad(item["ap"]),
                        values={e: pad(v) for e, v in item["values"].items()})

        # dim S_26 = 1, so no entry for it may build a field of degree > 1: the
        # decoder checks every value and the degrees before it builds a field
        built = []

        def no_modulus(p, d):
            built.append(d)
            raise AssertionError(f"canonical_modulus({p}, {d!r}) called")
        monkeypatch.setattr(ffpoly, "canonical_modulus", no_modulus)
        damaged = [
            dict(item, values={e: v for e, v in item["values"].items() if e != "13"}),
            dict(item, values=dict(item["values"], **{"17": ["1"]})),
            dict(item, values=dict(item["values"], **{"2": ["59", "0"]})),
            dict(item, values=dict(item["values"], **{"2": ["166"]})),
            dict(item, ap=["-1"]),
            # an overflow marker, as earlier versions wrote for a capped degree
            dict(item, values={}, ap=None, overflow=True),
            degree(40, 40), degree(0, 0), degree(-1, 1), degree("2", 2), degree(2.0, 2),
        ]
        for bad in damaged:
            # planted on disk: the next get reads it from the file
            disk.put("eigsys", key, [bad])
            disk.flush()
            cache.clear_memos()
            assert hecke.eigensystems(107, 26, 13) == fresh
            disk.flush()
            with open(path, encoding="ascii") as fh:
                assert fh.read() == good
        assert built == []
        monkeypatch.undo()
        disk.put("eigsys", key, [damaged[0]])
        disk.flush()
        cache.clear_memos()
        assert cf.certify_ordinary(107).conclusion == cf.CERTIFIED
        assert _cached_entry(path, "eigsys", key) == json.loads(good)["entries"][
            "eigsys"]["107_26_13"]
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_entry_of_another_schema_is_a_miss(tmp_path, isolated_cache):
    # a well-formed file whose entry is wrong: only its stamps give it away
    key = (107, 26, 13)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = hecke.eigensystems(107, 26, 13)
        disk.flush()
        path = disk._path("eigsys", key)
        with open(path, encoding="ascii") as fh:
            good = fh.read()
        doc = json.loads(good)
        assert doc["schema"] == wzcert.CACHE_SCHEMA
        entry = doc["entries"]["eigsys"]["107_26_13"]
        item = entry["value"][0]
        wrong = dict(item, values=dict(item["values"], **{"2": ["1"]}))
        entries = {"eigsys": {"107_26_13": dict(entry, value=[wrong])}}
        for stamp, value in (("schema", wzcert.CACHE_SCHEMA - 1), ("schema", None),
                             ("toolversion", "0.0.0"), ("toolversion", None)):
            planted = dict(doc, entries=entries, **{stamp: value})
            if value is None:
                del planted[stamp]
            with open(path, "w", encoding="ascii") as fh:
                json.dump(planted, fh)
            assert disk.get("eigsys", key) is None, (stamp, value)
            cache.clear_memos()
            assert hecke.eigensystems(107, 26, 13) == fresh
            disk.flush()
            with open(path, encoding="ascii") as fh:
                assert fh.read() == good
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_entry_of_another_prime_is_a_miss(tmp_path, isolated_cache):
    # p's file that names another prime, in its stamp or in an entry's key
    key = (107, 26, 13)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = hecke.eigensystems(*key)
        other = [s.as_doc() for s in hecke.eigensystems(109, 26, 13)]
        disk.flush()
        path = disk._path("eigsys", key)
        with open(path, encoding="ascii") as fh:
            good = fh.read()
        doc = json.loads(good)
        entry = doc["entries"]["eigsys"]["107_26_13"]
        assert other != entry["value"]
        planted_docs = [
            dict(doc, p=109),
            dict(doc, entries={"eigsys": {"107_26_13": {"key": [109, 26, 13],
                                                        "value": other}}}),
        ]
        for planted in planted_docs:
            with open(path, "w", encoding="ascii") as fh:
                json.dump(planted, fh)
            assert disk.get("eigsys", key) is None
            cache.clear_memos()
            assert hecke.eigensystems(*key) == fresh
            disk.flush()
            with open(path, encoding="ascii") as fh:
                assert fh.read() == good
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_per_entry_file_of_schema_2_is_never_read(tmp_path, isolated_cache, monkeypatch):
    # the layout before one file per prime: eigsys/107_26_13.json, here with
    # a wrong value under the stamps of its own schema
    key = (107, 26, 13)
    fresh = hecke.eigensystems(*key)
    item = fresh[0].as_doc()
    wrong = dict(item, values=dict(item["values"], **{"2": ["1"]}))
    legacy = tmp_path / "eigsys" / "107_26_13.json"
    legacy.parent.mkdir()
    legacy.write_text(json.dumps({"toolversion": wzcert.TOOL_VERSION, "schema": 2,
                                  "key": list(key), "value": [wrong]}))
    opened = []
    real_open = open

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, tmp_path))
        return real_open(path, *args, **kwargs)
    monkeypatch.setattr(cache, "open", recording_open, raising=False)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        assert disk.get("eigsys", key) is None
        assert hecke.eigensystems(*key) == fresh
        disk.flush()
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))
    assert set(opened) == {"107.json"}
    assert DiskCache(str(tmp_path)).get("eigsys", key) == [item]


def test_cache_file_that_is_not_an_object_is_a_miss(tmp_path, isolated_cache, capsys):
    # valid JSON that is not a file of entries: recomputed and rewritten, never raised
    key = (107, 26, 13)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = hecke.eigensystems(*key)
        disk.flush()
        path = disk._path("eigsys", key)
        good = _cached_entry(path, "eigsys", key)
        stamps = {"toolversion": wzcert.TOOL_VERSION, "schema": wzcert.CACHE_SCHEMA,
                  "p": 107}
        not_entries = [dict(stamps, entries=e) for e in (
            None, [], {"eigsys": []}, {"eigsys": {"107_26_13": []}},
            {"eigsys": {"107_26_13": {"key": list(key)}}})]

        def eigensystems():
            found = hecke.eigensystems(*key) == fresh
            disk.flush()
            return found
        certified = lambda: cli.main(["certify", "--p", "107", "--mode", "ordinary"]) == 0
        for text in ["[]", "null", "3", '"x"'] + [json.dumps(d) for d in not_entries]:
            for compute in (eigensystems, certified):
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(text)
                assert disk.get("eigsys", key) is None
                cache.clear_memos()
                assert compute(), text
                assert _cached_entry(path, "eigsys", key) == good
        capsys.readouterr()
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_ap_profile_validates_before_it_writes(tmp_path, isolated_cache):
    cache.set_cache(DiskCache(str(tmp_path)))
    try:
        cache.clear_memos()
        for args in ((9, 24), (107, 24, 0), (5, 12), (107, 13), (107, -2)):
            with pytest.raises(ValueError):
                hecke.ap_profile(*args)
        assert list(tmp_path.iterdir()) == []
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def _served_after_planting(disk, namespace, key, bad, compute):
    """Plant `bad` under key, then compute from empty memos."""
    disk.put(namespace, key, bad)
    cache.clear_memos()
    return compute()


def test_failed_put_leaves_no_temp_file(tmp_path, isolated_cache, monkeypatch):
    # a run writes its entries when it ends; a failed write leaves nothing
    disk = DiskCache(str(tmp_path))
    real_fdopen = os.fdopen

    def refuse(*args):
        raise OSError("refused")

    def read_only(fd, *args, **kwargs):     # the write then raises an OSError
        return real_fdopen(fd, "r")

    @cache.persist
    def run(fail=False):
        cache.get_cache().put("modulus", (7, 2), [3, 6, 1])
        assert os.listdir(tmp_path) == []
        if fail:
            raise ValueError("the run fails after its put")

    cache.set_cache(disk)
    try:
        for name, fake in (("replace", refuse), ("fdopen", read_only)):
            with monkeypatch.context() as patched:
                patched.setattr(cache.os, name, fake)
                run()
            assert os.listdir(tmp_path) == [], name
        with pytest.raises(ValueError):
            run(fail=True)
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))
    assert os.listdir(tmp_path) == ["7.json"]
    assert DiskCache(str(tmp_path)).get("modulus", (7, 2)) == [3, 6, 1]


def test_modulus_entry_that_is_not_a_field_is_a_miss(tmp_path, isolated_cache):
    key = (7, 4)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = ffpoly.canonical_modulus(*key)
        good = disk.get("modulus", key)
        assert good == list(fresh)
        # (x^2 + 1)(x^2 + x + 3): both quadratics are irreducible over GF(7), so
        # the quartic has no root, and x^(7^4) = x holds mod it; the gcd decides
        quartic = [3, 1, 4, 1, 1]
        assert all(sum(c * x**j for j, c in enumerate(quartic)) % 7 for x in range(7))
        for bad in ({"0": 3}, "x", good[1:], good + [0], [float(c) for c in good],
                    [str(c) for c in good], good[:-1] + [True],
                    [good[0] + 7] + good[1:], good[:-1] + [2], [0] + good[1:],
                    quartic):
            assert _served_after_planting(
                disk, "modulus", key, bad, lambda: ffpoly.canonical_modulus(*key)) == fresh
            assert disk.get("modulus", key) == good
        # another irreducible quartic defines the field too and is served: the
        # load check guarantees a field, the lex-least choice is trusted
        other = [3, 0, 0, 1, 1]
        assert _served_after_planting(
            disk, "modulus", key, other, lambda: ffpoly.canonical_modulus(*key)) == tuple(other)
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_canonical_modulus_validates_before_it_reads_or_writes(tmp_path, isolated_cache):
    cache.set_cache(DiskCache(str(tmp_path)))
    try:
        cache.clear_memos()
        for args in ((9, 2), (2**31 - 1, 2)):
            with pytest.raises(ValueError):
                ffpoly.canonical_modulus(*args)
        assert list(tmp_path.iterdir()) == []
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_certificate_from_an_empty_cache_equals_the_warm_one(tmp_path, isolated_cache):
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        cold = cf.emit_certificate(cf.certify(179, "ordinary"))
        assert disk.get("modulus", (179, 2)) == list(ffpoly.canonical_modulus(179, 2))
        cache.clear_memos()
        assert cf.emit_certificate(cf.certify(179, "ordinary")) == cold
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_eigsys_entry_that_drops_classes_is_a_miss(tmp_path, isolated_cache):
    # dim S_26 = 1: one rational class, and the action is semisimple
    key = (107, 26, 13)
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        fresh = hecke.eigensystems(*key)
        good = disk.get("eigsys", key)
        [item] = good
        assert (item["d"], item["mult"], item["ss"]) == (1, 1, True)
        for bad in ([], [item, item], [dict(item, mult=0)], [dict(item, mult=2)],
                    [dict(item, mult=True)], [dict(item, mult=1.0)]):
            assert _served_after_planting(
                disk, "eigsys", key, bad, lambda: hecke.eigensystems(*key)) == fresh
            assert disk.get("eigsys", key) == good
        disk.put("eigsys", key, [])
        cache.clear_memos()
        assert cf.certify_ordinary(107).conclusion == cf.CERTIFIED
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_profile_entry_that_drops_classes_is_a_miss(tmp_path, isolated_cache):
    # dim S_38 = 2 and dim S_44 = 3: the two non-ordinary weights of p = 79
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        keys = [(79, 38, 13), (79, 44, 13)]
        fresh = [hecke.ap_profile(*key) for key in keys]
        good = [disk.get("profile", key) for key in keys]
        assert good[0] == {"classes": [[1, False, 1], [1, True, 1]], "ss": True}
        key = keys[0]
        entry = lambda classes, ss=True: {"classes": classes, "ss": ss}
        for bad in (entry([]), entry([[1]]), entry([[1, True, 0], [1, False, 1]]),
                    entry([[1, 1, 1], [1, False, 1]]), entry([[0, True, 1], [1, False, 1]]),
                    entry([["1", True, 1], [1, False, 1]]),
                    entry([[1.0, True, 1], [1, False, 1]]),
                    entry(good[0]["classes"] + [[1, False, 1]]),
                    entry([[1, True, 1], [1, False, 1, 0]]),
                    entry(good[0]["classes"], 1), {"classes": good[0]["classes"]},
                    dict(good[0], extra=0), good[0]["classes"], "x",
                    {"1": [1, True, 1]}):
            assert _served_after_planting(
                disk, "profile", key, bad, lambda: hecke.ap_profile(*key)) == fresh[0]
            assert disk.get("profile", key) == good[0]
        for key in keys:
            disk.put("profile", key, entry([]))
        cache.clear_memos()
        assert cf.certify_nonordinary(79).conclusion == cf.CERTIFIED
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_profile_entry_that_drops_a_class_of_a_semisimple_space_is_a_miss(
        tmp_path, isolated_cache):
    # each planted entry keeps only the ordinary class of a semisimple space
    # and so hides the weight's non-ordinary class; it must not be served
    disk = DiskCache(str(tmp_path))
    cache.set_cache(disk)
    try:
        cache.clear_memos()
        plants = {(79, 38, 13): [[1, False, 1]], (79, 44, 13): [[2, False, 1]]}
        good = {}
        for key in plants:
            hecke.ap_profile(*key)
            good[key] = disk.get("profile", key)
        for layout in (lambda classes: classes,
                       lambda classes: {"classes": classes, "ss": True}):
            for key, classes in plants.items():
                disk.put("profile", key, layout(classes))
            cache.clear_memos()
            assert cf.certify_nonordinary(79).conclusion == cf.CERTIFIED
            for key in plants:        # recomputed and rewritten
                assert disk.get("profile", key) == good[key]
        assert all(entry["ss"] is True for entry in good.values())
    finally:
        cache.set_cache(DiskCache(str(isolated_cache)))


def test_semisimple_bookkeeping():
    for p in (17, 29, 43):
        for k in range(12, 50, 2):
            systems = hecke.eigensystems(p, k, 13)
            assert sum(s.d * s.mult for s in systems) == dim_cusp(k)
            assert all(s.semisimple_action for s in systems)


def test_value_field_degree_is_minimal():
    # d must be the least degree containing every stored value and a_p
    from math import lcm
    for p, k in ((41, 24), (29, 36), (43, 48)):
        for s in hecke.eigensystems(p, k, 13):
            K = ffpoly.canonical_field(p, s.d)
            degs = []
            for raw in list(s.values.values()) + [s.ap]:
                t = 1
                x = K.frob(raw)
                while x != raw:
                    x = K.frob(x)
                    t += 1
                degs.append(t)
            assert lcm(*degs) == s.d, (p, k)


def test_grown_value_field_67_56():
    # the degree-2 class has a rational a_2; T_3 makes its field grow
    systems = hecke.eigensystems(67, 56)
    assert [s.d for s in systems] == [1, 2, 1]
    s = systems[1]
    K = s.field
    assert K.coords(s.values[2]) == (33, 0)
    assert K.coords(s.values[3]) == (38, 32)
    assert K.coords(s.ap) == (66, 10)


def test_classes_with_equal_a2_41_144():
    # two degree-2 classes share a_2 and the GF(41)-minimal polynomial of
    # a_3; only GF(41^2) separates them, and the factor of a_3 orders them
    for B in (3, 13):
        systems = hecke.eigensystems(41, 144, B)
        assert len(systems) == 10 and all(s.mult == 1 for s in systems)
        quad = [tuple(s.field.coords(v) for v in (s.values[2], s.values[3], s.ap))
                for s in systems if s.d == 2]
        assert quad == [((7, 14), (0, 16), (0, 0)),
                        ((7, 14), (0, 25), (16, 21))], B
    # each shared a_2 leaves a kernel of g(T_2) larger than deg g, so these
    # classes come from a T_2 eigenspace of two vectors and its refinement
    Fp = ffpoly.canonical_field(41, 1)
    M2 = _t2_matrix(41, 144)
    raw, _ss, _d = hecke._raw_classes(41, 144, 13)
    for g, _mult in ffpoly.factor_monic(Fp, fflinalg.mat_charpoly(Fp, M2)):
        D = ffpoly.pdeg(g)
        W = fflinalg.poly_kernel_modp(41, M2, g)
        K = Fp if D == 1 else ffpoly.ExtField(Fp, g)
        paths = [r.path for r in raw if r.path[0] == (2, hecke._factor_key(Fp, g))]
        assert len(W) == D * len(paths)
        assert (len(W) > D) == all(len(path) == 2 for path in paths)
        assert len(hecke._t2_eigenspace(41, K, M2, g)) == len(W) // D
        if D == 2:
            assert len(W) == 4 and len(paths) == 2


def _t2_matrix(p, k):
    d = dim_cusp(k)
    return hecke._op_matrix(hecke._basis_rows(p, k, 2 * d + 2), k, 2, p)


def test_t2_eigenspace_from_the_gfp_kernel_spans_the_nullspace_over_K():
    # every factor at p = 107 and 139, and the factors whose kernel g(T_2) is
    # larger than deg g at weights where that happens; at (251, 126) dim W = 3
    larger = [(41, 144), (67, 56), (131, 66), (179, 90), (251, 126)]
    weights = [(p, k) for p in (107, 139) for k in range(12, p + 2, 2) if dim_cusp(k)]
    seen = []
    for p, k in weights + larger:
        Fp = ffpoly.canonical_field(p, 1)
        M2 = _t2_matrix(p, k)
        for g, _mult in ffpoly.factor_monic(Fp, fflinalg.mat_charpoly(Fp, M2)):
            D = ffpoly.pdeg(g)
            W = fflinalg.poly_kernel_modp(p, M2, g)
            if (p, k) in larger and len(W) == D:
                continue
            K = Fp if D == 1 else ffpoly.ExtField(Fp, g)
            lam = Fp.neg(g[0]) if K is Fp else K.gen
            MK = fflinalg.mat_lift(K, M2)
            null = fflinalg.mat_nullspace(K, [
                [K.sub(x, lam if i == j else K.zero) for j, x in enumerate(row)]
                for i, row in enumerate(MK)])
            space = hecke._t2_eigenspace(p, K, M2, g)
            assert len(space) == len(W) // D == len(null), (p, k, g)
            assert fflinalg.rref(K, space)[0] == fflinalg.rref(K, null)[0], (p, k, g)
            if len(W) > D:
                seen.append((p, k, len(W)))
    assert seen == [(41, 144, 2), (41, 144, 2), (41, 144, 2), (41, 144, 4),
                    (67, 56, 2), (131, 66, 2), (179, 90, 2), (251, 126, 3)]


def test_gfp_kernel_raises_beyond_its_int64_bound():
    # a 1 x 1 kernel sums at most 2 residue products a term: 2(p-1)^2 < 2^63
    p = 2**31 - 1
    assert fflinalg.poly_kernel_modp(p, [[5]], (p - 5, 1)).tolist() == [[1]]
    assert fflinalg.poly_kernel_modp(p, [[5]], (p - 6, 1)).tolist() == []
    p = 2**31 + 11
    with pytest.raises(ValueError, match="int64"):
        fflinalg.poly_kernel_modp(p, [[5]], (p - 5, 1))


def _conjugates(K, x):
    out = [x]
    while K.frob(out[-1]) != x:
        out.append(K.frob(out[-1]))
    return out


def _is_lex_least_conjugate(s):
    K = ffpoly.canonical_field(s.p, s.d)
    packet = [v for _, v in sorted(s.values.items())]
    recorded = [K.coords(v) for v in packet]
    for _ in range(s.d - 1):
        packet = [K.frob(v) for v in packet]
        if [K.coords(v) for v in packet] < recorded:
            return False
    return True


def _a2_minpoly_key(s):
    """(degree, coefficients from the constant term) of a_2's GF(p)-minimal polynomial."""
    K = ffpoly.canonical_field(s.p, s.d)
    f = (K.one,)
    for c in _conjugates(K, s.values[2]):
        f = ffpoly.pmul(K, f, (K.neg(c), K.one))
    return ffpoly.pdeg(f), tuple(K.coords(c)[0] for c in f)


def test_conjugate_rule_and_class_order():
    for p in (67, 107, 139):
        for k in range(12, p + 2, 2):
            systems = hecke.eigensystems(p, k)
            assert all(_is_lex_least_conjugate(s) for s in systems), (p, k)
            keys = [_a2_minpoly_key(s) for s in systems]
            assert keys == sorted(keys), (p, k)


def test_conjugate_rule_rejects_a_frobenius_image():
    s = next(s for s in hecke.eigensystems(41, 24) if s.d == 2)
    K = ffpoly.canonical_field(41, 2)
    image = {ell: K.frob(v) for ell, v in s.values.items()}
    assert _is_lex_least_conjugate(s)
    assert not _is_lex_least_conjugate(dataclasses.replace(s, values=image))


def test_grown_class_records_one_packet_for_every_conjugate():
    B = hecke.default_bound(67)
    raw, _ss, _d = hecke._raw_classes(67, 56, B)
    r = next(r for r in raw if r.field.degree == 2)
    K = r.field
    image = hecke._RawClass(K, {ell: K.frob(v) for ell, v in r.values.items()},
                            K.frob(r.ap), r.mult, r.path, [K.frob(x) for x in r.vec])
    assert image.values != r.values
    assert (hecke._canonical_system(67, 56, image, B, True)
            == hecke._canonical_system(67, 56, r, B, True))
