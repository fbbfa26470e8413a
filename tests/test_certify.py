import json
import random

import pytest

from wzcert import cache, certify as cf, cli
from wzcert.galoischecks import companion_match
from wzcert.hecke import eigensystems


def check_by_id(candidate, cid):
    return next(c for c in candidate["checks"] if c["id"] == cid)


def test_certify_ordinary_107():
    cert = cf.certify_ordinary(107)
    assert cert.conclusion == cf.CERTIFIED
    winner = next(c for c in cert.candidates
                  if c["k"] == 26 and c["conclusion"] == cf.CERTIFIED)
    assert winner["n_values"] == [105, 106]
    g = check_by_id(winner, "gcd_eligibility")
    assert g["witness"]["gcd"] == 1 and g["witness"]["k_minus_1"] == 25
    o = check_by_id(winner, "ordinary_at_p")
    assert o["witness"]["ap"] == ["106"]
    assert o["witness"]["ap_exact"] == "35830422465487817813321292"
    s = check_by_id(winner, "companion_split")
    assert s["verdict"] == "PASS" and s["witness"]["companion_weight"] == 82
    assert check_by_id(winner, "image_large")["verdict"] == "PASS"
    assert check_by_id(winner, "lift_weight0_n105")["verdict"] == "PASS"
    assert check_by_id(winner, "lift_weight0_n106")["verdict"] == "PASS"


def test_certify_ordinary_79_rejected():
    cert = cf.certify_ordinary(79)
    assert cert.conclusion == cf.REJECTED
    assert all(c["conclusion"] == cf.REJECTED for c in cert.candidates)


def test_certify_nonordinary_79():
    cert = cf.certify_nonordinary(79)
    assert cert.conclusion == cf.CERTIFIED
    winner = next(c for c in cert.candidates
                  if c["k"] == 38 and c["conclusion"] == cf.CERTIFIED)
    assert winner["n_values"] == [79]
    assert check_by_id(winner, "gcd_eligibility")["witness"]["gcd"] == 1
    assert check_by_id(winner, "nonordinary_at_p")["witness"]["ap"] == ["0"]
    img = check_by_id(winner, "image_large")
    assert img["verdict"] == "PASS" and len(img["witness"]["constituents"]) == 3
    assert check_by_id(winner, "lift_weight0_n79")["verdict"] == "PASS"


def test_certify_nonordinary_59_rejected():
    cert = cf.certify_nonordinary(59)
    assert cert.conclusion == cf.REJECTED
    k16 = next(c for c in cert.candidates if c["k"] == 16)
    g = check_by_id(k16, "gcd_eligibility")
    assert g["verdict"] == "FAIL" and g["witness"]["gcd"] == 15
    assert check_by_id(k16, "nonordinary_at_p")["verdict"] == "PASS"
    assert check_by_id(k16, "lift_weight0_n59")["verdict"] == "FAIL"


def test_certify_empty_candidates():
    cert = cf.certify_ordinary(7)
    assert cert.conclusion == cf.REJECTED and cert.candidates == []
    text = cf.emit_certificate(cert)
    assert json.loads(text) == cert.as_doc()


def test_certify_ordinary_bimg(monkeypatch):
    from wzcert import galoischecks
    bounds = []
    searched = []

    def spy(p, k, fsys, B):
        bounds.append(B)
        searched.append((k, fsys.d, [fsys.field.coords(fsys.values[ell])
                                     for ell in (2, 3, 5, 7, 11, 13)]))
        return companion_match(p, k, fsys, B)

    monkeypatch.setattr(galoischecks, "companion_match", spy)
    cert = cf.certify_ordinary(107, B_img=20)
    # the verdicts and the split-pair survey share the companion bound and
    # search each (weight, class) once, although the verdicts' classes are
    # computed to B_img and the survey's to B
    assert bounds and set(bounds) == {13}
    assert all(searched.count(x) == 1 for x in searched)
    assert 26 in [k for k, _d, _values in searched]
    assert cert.split_pairs == cf.certify_ordinary(107).split_pairs
    assert cert.conclusion == cf.CERTIFIED
    assert cert.bounds == {"B": 20, "B_img": 20, "strict": False,
                           "ext_degree_cap": "max(8, dim)"}
    winner = next(c for c in cert.candidates
                  if c["k"] == 26 and c["conclusion"] == cf.CERTIFIED)
    # the image checks search to B_img; the companion congruence keeps B
    image = check_by_id(winner, "image_large")["witness"]["constituents"]
    irreducible = next(c for c in image if c["id"] == "image_irreducible")
    assert irreducible["witness"]["bound"] == 20
    assert check_by_id(winner, "companion_split")["witness"]["bound"] == 13
    assert cli.main(["certify", "--p", "107", "--mode", "ordinary",
                     "--bimg", "20"]) == 0


@pytest.mark.parametrize("argv", [
    ["eigenform", "--weight", "24", "--prec", "4", "--modp", "9"],
    ["eigenform", "--weight", "24", "--prec", "4", "--modp", "1"],
    ["eigenform", "--weight", "24", "--prec", "4", "--modp", "-7"],
    ["eigenform", "--weight", "24", "--prec", "4", "--modp", "3"],
    ["eigenform", "--weight", "24", "--prec", "4", "--modp", "5"],
    ["eigenform", "--weight", "24", "--prec", "0", "--modp", "41"],
    ["tame", "--p", "9", "--k", "4", "--case", "nonordinary"],
    ["tame", "--p", "5", "--k", "12", "--case", "ordinary"],
    ["tame", "--p", "7", "--k", "3", "--case", "ordinary"],
    ["tame", "--p", "7", "--k", "12", "--n", "0", "--case", "ordinary"],
    ["certify", "--p", "107", "--mode", "ordinary", "--bimg", "0"],
    ["certify", "--p", "79", "--mode", "nonordinary", "--bimg", "20"],
], ids=" ".join)
def test_cli_rejects_invalid_primes_and_bounds(argv, capsys):
    # a usage error: exit code 2, a message on stderr, nothing on stdout
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_certificate_roundtrip_and_bigints():
    cert = cf.certify_ordinary(107)
    text = cf.emit_certificate(cert)
    assert "35830422465487817813321292" in text
    doc = json.loads(text)
    assert doc == cert.as_doc()
    assert doc["format"] == cf.FORMAT_CERTIFICATE
    assert doc["toolversion"] == cert.toolversion


def test_certificate_invariant_certified_iff_all_pass():
    for p in (79, 107):
        for mode in ("ordinary", "nonordinary"):
            cert = cf.certify(p, mode)
            for cand in cert.candidates:
                all_pass = all(c["verdict"] == "PASS" for c in cand["checks"])
                assert (cand["conclusion"] == cf.CERTIFIED) == all_pass
            if cert.conclusion == cf.CERTIFIED:
                assert any(c["conclusion"] == cf.CERTIFIED for c in cert.candidates)


def test_companion_witness_reverifiable():
    cert = cf.certify_ordinary(107)
    winner = next(c for c in cert.candidates
                  if c["k"] == 26 and c["conclusion"] == cf.CERTIFIED)
    witness = check_by_id(winner, "companion_split")["witness"]
    fsys = eigensystems(107, 26, cert.bounds["B"])[0]
    got = companion_match(107, 26, fsys, cert.bounds["B"])
    assert got is not None
    gsys, e, _ = got
    assert witness["exponent"] == e
    assert witness["companion"] == gsys.as_doc()


def test_split_pair_survey_fields():
    cert = cf.certify_ordinary(107)
    pair = next(x for x in cert.split_pairs if not x["self_twist"])
    assert pair["k"] == 26 and pair["companion_weight"] == 82
    assert pair["eligible"] is True


def test_scan_report_small():
    rep = cf.scan_report(85, "nonordinary")
    assert rep.certified == [79]
    # scan equals the per-prime certification conclusions
    for c in rep.certificates:
        assert (c.p in rep.certified) == (c.conclusion == cf.CERTIFIED)
    with pytest.raises(ValueError):
        cf.scan_report(16, "nonordinary")
    with pytest.raises(ValueError):
        cf.scan_report(85, "both")


def test_emit_deterministic():
    a = cf.emit_certificate(cf.certify_nonordinary(59))
    cache.clear_memos()
    b = cf.emit_certificate(cf.certify_nonordinary(59))
    assert a == b


# characters json escapes (quote, backslash, controls), non-ASCII text and
# a character beyond the BMP, which ensure_ascii writes as a surrogate pair
TEXT_ALPHABET = 'ab Z09"\\/\n\t\r\b\f\x00\x1f\x7f\u00e9\u20ac\u03c9\U0001d11e'


def random_text(rng):
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randrange(6)))


def random_scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randrange(-10**40, 10**40)
    if kind == 1:
        return rng.randrange(-3, 300)
    if kind == 2:
        return rng.choice([True, False, None])
    return random_text(rng)


def random_doc(rng, depth=0):
    """A seeded JSON-able document: nested dicts, lists and tuples (empty,
    all-int, all-str and mixed), ints, bools, None and strings."""
    kind = rng.randrange(8) if depth < 4 else 0
    size = rng.randrange(5)
    if kind in (0, 1):
        return random_scalar(rng)
    if kind == 2:
        return {random_text(rng): random_doc(rng, depth + 1) for _ in range(size)}
    if kind == 3:
        return [rng.randrange(-10**40, 10**40) for _ in range(size)]
    if kind == 4:
        return tuple(random_text(rng) for _ in range(size))
    if kind == 5:  # ints with a bool among them are not an int list
        return [rng.randrange(9) for _ in range(size)] + [rng.choice([True, False])]
    items = [random_doc(rng, depth + 1) for _ in range(size)]
    return items if kind == 6 else tuple(items)


def test_canonical_json_matches_the_stdlib_encoder():
    for seed in range(400):
        doc = random_doc(random.Random(seed))
        want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
        assert cf._canonical_json(doc) == want, seed
    # one dict object twice at one depth and once at another: a text reused by
    # identity must be the text for that depth, and only within one call
    for seed in range(100):
        rng = random.Random(seed)
        shared = {"w": random_doc(rng), "n": [random_doc(rng, 3)]}
        for doc in ({"a": [shared, shared], "b": [[shared]]},
                    [shared, {"x": shared}, (shared,)]):
            for _ in range(2):
                want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
                assert cf._canonical_json(doc) == want, seed
                shared["n"].append(seed)
    for value in (1.5, [1, 2, 3.0], {"a": {1: 2}}, {"a": [{"b"}]}, {"x"}):
        with pytest.raises(TypeError):
            cf._canonical_json(value)


def test_cache_corruption_recovers(isolated_cache):
    first = cf.emit_certificate(cf.certify_nonordinary(59))
    path = cache.get_cache()._path("eigsys", (59,))
    with open(path) as fh:
        good = fh.read()
    held = json.loads(good)["entries"]
    # a file that does not parse, and one torn halfway
    for corrupt in ("{corrupt", good[:len(good) // 2]):
        with open(path, "w") as fh:
            fh.write(corrupt)
        cache.clear_memos()
        cert = cf.certify_nonordinary(59)
        assert cert.conclusion == cf.REJECTED
        assert cf.emit_certificate(cert) == first
        with open(path) as fh:   # the recomputed entries overwrite the corrupt file
            entries = json.load(fh)["entries"]
        for namespace in ("profile", "eigsys"):
            assert entries[namespace], namespace
            assert all(held[namespace][name] == entry
                       for name, entry in entries[namespace].items())


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "c107.json"
    assert cli.main(["certify", "--p", "107", "--mode", "ordinary",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["conclusion"] == "CERTIFIED"
    capsys.readouterr()
    assert cli.main(["certify", "--p", "59", "--mode", "nonordinary"]) == 1
    captured = capsys.readouterr()
    assert '"conclusion": "REJECTED"' in captured.out
    assert cli.main(["eigenform", "--weight", "24", "--prec", "3"]) == 2


def test_cli_eigenform_and_tame(capsys):
    assert cli.main(["eigenform", "--weight", "26", "--prec", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2] == "2 -48"
    assert cli.main(["eigenform", "--weight", "24", "--prec", "3",
                     "--modp", "41"]) == 0
    out = capsys.readouterr().out
    assert "# system 0" in out
    assert cli.main(["tame", "--p", "79", "--k", "38",
                     "--case", "nonordinary"]) == 0
    capsys.readouterr()
    assert cli.main(["tame", "--p", "59", "--k", "16",
                     "--case", "nonordinary"]) == 1
    capsys.readouterr()
    assert cli.main(["tame", "--p", "107", "--k", "26",
                     "--case", "ordinary"]) == 0
    out = capsys.readouterr().out
    assert "n = 105:" in out and "n = 106:" in out


def test_cli_eigenform_space_larger_than_field(capsys):
    # dim S_90 = 7 >= p: the characteristic polynomial still exists
    assert cli.main(["eigenform", "--weight", "90", "--prec", "5",
                     "--modp", "7"]) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("# system ") for line in out.splitlines()) == 3
    # the three classes span 1 + 1 + 2 of the 7 dimensions, and say so
    assert out.splitlines()[0] == ("# the Hecke action on S_90 mod 7 is not "
                                   "semisimple: the eigen systems cover 4 of 7 "
                                   "dimensions")
    assert cli.main(["eigenform", "--weight", "24", "--prec", "3",
                     "--modp", "41"]) == 0
    assert "semisimple" not in capsys.readouterr().out


def test_cli_scan(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--pmax", "85", "--mode", "nonordinary",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] == [79]
    capsys.readouterr()


def test_cli_scan_both_modes(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert cli.main(["scan", "--pmax", "30", "--mode", "both",
                     "--out", str(out)]) == 0
    for mode in ("ordinary", "nonordinary"):
        doc = json.loads((tmp_path / f"scan.{mode}.json").read_text())
        assert doc["mode"] == mode and doc["certified"] == []
    capsys.readouterr()
