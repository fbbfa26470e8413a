"""Certification orchestration: per-prime hypothesis verdicts, machine-readable
certificates, scan reports, and canonical JSON emission.

A certificate for (p, mode) lists every candidate weight with its full check
record.  Ordinary candidates are the even 12 <= k < p with gcd(k-1, p-1) = 1
carrying an ordinary eigen system; they are checked for large image, a
companion form (local splitness), and the weight-zero tame shape for both
n = p-1 and n = p-2.  Non-ordinary candidates are the gcd-eligible
non-ordinary weights, checked by exact arithmetic; gcd-ineligible
non-ordinary weights are recorded with their failing gcd.
"""

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd

from . import TOOL_VERSION, galoischecks
from .cache import persist
from .galoischecks import (CheckVerdict, FAIL, INCONCLUSIVE, PASS,
                           large_image_verdict, split_verdict)
from .hecke import default_bound, eigensystems, exact_ap_dim1, witness_primes
from .ordscan import nonordinary_weights
from .primes import is_prime, primes_up_to
from .qseries import dim_cusp
from .tame import lift_check_nonordinary, lift_check_ordinary

CERTIFIED = "CERTIFIED"
REJECTED = "REJECTED"
INCONCLUSIVE_CERT = "INCONCLUSIVE"

FORMAT_CERTIFICATE = "wzcert.certificate.v1"
FORMAT_REPORT = "wzcert.scan.v1"


@dataclass
class Certificate:
    p: int
    mode: str
    conclusion: str
    candidates: list
    bounds: dict
    split_pairs: list = field(default_factory=list)
    toolversion: str = TOOL_VERSION

    def as_doc(self):
        doc = {
            "format": FORMAT_CERTIFICATE,
            "toolversion": self.toolversion,
            "p": self.p,
            "mode": self.mode,
            "conclusion": self.conclusion,
            "bounds": self.bounds,
            "candidates": self.candidates,
        }
        if self.mode == "ordinary":
            doc["split_pairs"] = self.split_pairs
        return doc


def _check_prime(p):
    if not is_prime(p) or p <= 5:
        raise ValueError("certification requires a prime p > 5")


def _candidate_conclusion(checks):
    verdicts = [c["verdict"] for c in checks]
    if any(v == FAIL for v in verdicts):
        return REJECTED
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE_CERT
    return CERTIFIED


def _aggregate(candidates):
    if any(c["conclusion"] == CERTIFIED for c in candidates):
        return CERTIFIED
    if any(c["conclusion"] == INCONCLUSIVE_CERT for c in candidates):
        return INCONCLUSIVE_CERT
    return REJECTED


def _gcd_check(k, modulus, label):
    g = gcd(k - 1, modulus)
    verdict = PASS if g == 1 else FAIL
    return CheckVerdict("gcd_eligibility", verdict, {
        "k_minus_1": k - 1,
        "modulus": modulus,
        "modulus_label": label,
        "gcd": g,
    })


def _companion_matches(p, B):
    """companion_match(p, k, sys, B), searched once per (k, class).

    The match depends on a class only through its degree and its values at
    the primes l <= B, so classes computed to a larger bound share the entry
    of the class they restrict to.
    """
    ells = witness_primes(p, B)
    found = {}

    def match(k, sys):
        key = (k, sys.d, tuple(sys.values[ell] for ell in ells))
        if key not in found:
            found[key] = galoischecks.companion_match(p, k, sys, B)
        return found[key]
    return match


def _split_pair_survey(p, B, match):
    """All companion matches among weight pairs (k, p+1-k), 12 <= k <= (p+1)/2,
    regardless of gcd eligibility.

    This records local splitness evidence separately from the full hypothesis
    verdicts: a prime can carry a split ordinary pair whose weights all fail
    the gcd filter, in which case it never certifies even though companion
    data exists.  Matches of a class against its own twist are flagged: they
    witness a quadratic self-twist rather than a companion pair.
    """
    pairs = []
    for k in range(12, (p + 1) // 2 + 1, 2):
        kk = p + 1 - k
        if dim_cusp(k) == 0 or kk < 12 or dim_cusp(kk) == 0:
            continue
        for sys in eigensystems(p, k, B):
            if not sys.ordinary:
                continue
            found = match(k, sys)
            if found is None:
                continue
            gsys, e, _j = found
            pairs.append({
                "k": k,
                "companion_weight": kk,
                "exponent": e,
                "gcd_k_minus_1_p_minus_1": gcd(k - 1, p - 1),
                "eligible": gcd(k - 1, p - 1) == 1,
                "self_twist": k == kk and gsys.as_doc() == sys.as_doc(),
                "a2": sys.as_doc()["values"]["2"],
            })
    return pairs


def _bounds(B_use, B_img):
    """The certificate's bounds record: B_use is the bound the eigen systems
    are computed to, B_img the image bound."""
    # certificate format v1 keeps two constant fields: no bound stricter than
    # `default_bound`, about the Sturm bound of weight p+1, is applied
    # ("strict"), and every class is computed in full, whatever its degree
    # ("ext_degree_cap")
    return {"B": B_use, "B_img": B_img, "strict": False,
            "ext_degree_cap": "max(8, dim)"}


def _lift_verdict(res):
    return CheckVerdict(f"lift_weight0_n{res.n}", PASS if res.passed else FAIL,
                        res.as_doc())


def _candidate(k, n_values, sys, checks):
    checks = [c.as_doc() for c in checks]
    return {
        "k": k,
        "n_values": n_values,
        "eigen": sys.as_doc(),
        "checks": checks,
        "conclusion": _candidate_conclusion(checks),
    }


@persist
def certify_ordinary(p: int, B_img: int | None = None) -> Certificate:
    """Certificate for the ordinary split regime at p (targets n = p-1, p-2)."""
    _check_prime(p)
    B = default_bound(p)
    B_img = B if B_img is None else B_img
    if B_img < 2:
        raise ValueError("the image bound B_img must be >= 2")
    B_use = max(B, B_img)
    match = _companion_matches(p, B)
    candidates = []
    for k in range(12, p, 2):
        if gcd(k - 1, p - 1) != 1 or dim_cusp(k) == 0:
            continue
        systems = [s for s in eigensystems(p, k, B_use) if s.ordinary]
        if not systems:
            continue
        # the tame shape depends on (p, k, n) only
        lifts = [_lift_verdict(lift_check_ordinary(p, k, n)) for n in (p - 2, p - 1)]
        for sys in systems:
            ord_witness = {"ap": sys.as_doc()["ap"]}
            if dim_cusp(k) == 1:
                ord_witness["ap_exact"] = str(exact_ap_dim1(k, p))
            checks = [
                _gcd_check(k, p - 1, "p-1"),
                CheckVerdict("ordinary_at_p", PASS, ord_witness),
                large_image_verdict(p, k, sys, "ordinary", B_img),
                split_verdict(p, k, sys, B, match(k, sys)),
            ] + lifts
            candidates.append(_candidate(k, [p - 2, p - 1], sys, checks))
    return Certificate(p, "ordinary", _aggregate(candidates), candidates,
                       _bounds(B_use, B_img),
                       split_pairs=_split_pair_survey(p, B, match))


@persist
def certify_nonordinary(p: int) -> Certificate:
    """Certificate for the non-ordinary regime at p (target n = p).

    Its image verdicts follow from exact arithmetic, so no image bound applies.
    """
    _check_prime(p)
    B = default_bound(p)
    candidates = []
    for k in nonordinary_weights(p):
        systems = [s for s in eigensystems(p, k, B) if not s.ordinary]
        if not systems:
            continue
        lift = _lift_verdict(lift_check_nonordinary(p, k))
        for sys in systems:
            checks = [_gcd_check(k, p + 1, "p+1"),
                      CheckVerdict("nonordinary_at_p", PASS, {
                          "ap": sys.as_doc()["ap"],
                          "class_degree": sys.d,
                      })]
            if gcd(k - 1, p + 1) == 1:
                checks.append(large_image_verdict(p, k, sys, "nonordinary"))
            checks.append(lift)
            candidates.append(_candidate(k, [p], sys, checks))
    return Certificate(p, "nonordinary", _aggregate(candidates), candidates,
                       _bounds(B, B))


def certify(p: int, mode: str, B_img: int | None = None) -> Certificate:
    if mode == "ordinary":
        return certify_ordinary(p, B_img)
    if mode == "nonordinary":
        if B_img is not None:
            raise ValueError("B_img bounds the ordinary image checks only")
        return certify_nonordinary(p)
    raise ValueError("mode must be ordinary or nonordinary")


# ---------------------------------------------------------------------------
# scans


@dataclass
class ScanReport:
    """A scan in one mode; texts[i] is emit_certificate(certificates[i])
    without its final newline, every line indented 4 more spaces: the
    certificate as it stands in the report's "certificates" list."""

    mode: str
    pmax: int
    certified: list
    certificates: list
    texts: list

    def _skeleton(self):
        """The report document without its "certificates" entry."""
        doc = {
            "format": FORMAT_REPORT,
            "toolversion": TOOL_VERSION,
            "mode": self.mode,
            "pmax": self.pmax,
            "certified": self.certified,
        }
        if self.mode == "ordinary":
            doc["split_pair_primes"] = [
                c.p for c in self.certificates
                if any(not pair["self_twist"] for pair in c.split_pairs)]
        return doc

    def as_doc(self):
        doc = self._skeleton()
        doc["certificates"] = [c.as_doc() for c in self.certificates]
        return doc


MODES = ("ordinary", "nonordinary")


def _certify_task(args):
    """Certify one prime in each of the given modes, in order, in this process;
    returns each certificate with its canonical text at its report depth.

    Running the modes of one prime back to back lets the later mode reuse the
    eigen decompositions the earlier one left in the in-process memos.  The
    text is emitted here, so a pool worker, not the parent, pays for it.
    """
    p, modes = args
    certs = [certify(p, mode) for mode in modes]
    indent = _REPORT_ITEM_INDENT
    return p, [(cert, indent + _json(cert.as_doc(), indent)) for cert in certs]


def scan(pmax: int, modes, jobs: int = 1) -> list:
    """Certify every prime 5 < p <= pmax in each mode; one ScanReport per mode.

    Each prime is one task that certifies all modes, ordinary first.  Tasks
    are dispatched largest prime first, since the cost of a prime grows with
    p; each report lists its certificates in ascending p, so the bytes do not
    depend on the job count.
    """
    if pmax < 17:
        raise ValueError("pmax must be >= 17")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not modes or any(m not in MODES for m in modes):
        raise ValueError("scan modes must be ordinary or nonordinary")
    modes = [m for m in MODES if m in modes]
    primes = [p for p in primes_up_to(pmax) if p > 5]
    tasks = [(p, modes) for p in reversed(primes)]
    workers = min(jobs, len(primes))
    if workers > 1:
        import multiprocessing
        with multiprocessing.Pool(workers) as pool:
            done = dict(pool.imap_unordered(_certify_task, tasks, chunksize=1))
    else:
        done = dict(map(_certify_task, tasks))
    reports = []
    for i, mode in enumerate(modes):
        certs, texts = zip(*(done[p][i] for p in primes))
        certified = [c.p for c in certs if c.conclusion == CERTIFIED]
        reports.append(ScanReport(mode, pmax, certified, list(certs), list(texts)))
    return reports


def scan_report(pmax: int, mode: str, jobs: int = 1) -> ScanReport:
    """Certify every prime 5 < p <= pmax in one mode; certified primes
    listed ascending, independent of the job count (see `scan`)."""
    return scan(pmax, [mode], jobs)[0]


# ---------------------------------------------------------------------------
# canonical JSON emission


def _json(value, indent):
    """The canonical JSON of `value` written at `indent` (its closing bracket's
    indentation): the bytes of json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=True), tuples written as lists.

    CPython's C encoder does not run with `indent`, and its pure-Python one
    yields a chunk per item.  Here the text is collected as one list of parts
    and joined once, so no byte is copied once per nesting level, and a list
    or tuple of plain ints (not bools), or of strs, is one C-level join; that
    covers the witnesses' long exponent lists.  A container met again at the
    same indent repeats the parts already written for that object: a lift
    witness is one dict shared by every class of its weight.  Keys must be
    strs and floats are refused: `as_doc` makes neither.
    """
    out = []
    _emit(value, indent, out, {})
    return "".join(out)


def _emit(value, indent, out, done):
    """Append the parts of `_json(value, indent)` to `out`.  `done` maps the
    (id, indent) of each container written so far to its slice of `out`; the
    document outlives the call, so no id is reused."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"{type(value).__name__} has no canonical JSON form")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif (id(value), indent) in done:
        start, end = done[id(value), indent]
        out.extend(out[start:end])
    else:
        start = len(out)
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            lead = "{\n" + inner
            for key in sorted(value):
                # _encode_str raises TypeError on a key that is not a str
                out.append(f"{lead}{_encode_str(key)}: ")
                _emit(value[key], inner, out, done)
                lead = sep
            out.append(f"\n{indent}}}")
        else:
            types = set(map(type, value))
            if types == {int}:
                out.append(f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{indent}]")
            elif types == {str}:
                out.append(f"[\n{inner}{sep.join(map(_encode_str, value))}\n{indent}]")
            else:
                lead = "[\n" + inner
                for item in value:
                    out.append(lead)
                    _emit(item, inner, out, done)
                    lead = sep
                out.append(f"\n{indent}]")
        done[id(value), indent] = (start, len(out))


def _canonical_json(doc):
    return _json(doc, "") + "\n"


# a certificate's place in a report: an item of the "certificates" list
_REPORT_ITEM_INDENT = "    "


def emit_certificate(cert: Certificate, destination=None) -> str:
    """Serialize a certificate as canonical JSON (sorted keys, big integers as
    decimal strings); optionally write it to a path.  The text parses back to
    `cert.as_doc()`."""
    text = _canonical_json(cert.as_doc())
    if destination is not None:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def emit_report(report: ScanReport, destination=None) -> str:
    """Serialize a scan report as canonical JSON; optionally write it to a path.

    The bytes are those of the canonical JSON of `report.as_doc()`: the
    skeleton is dumped with null in the "certificates" slot, and the
    certificates' texts, already written at their depth in the report, go in
    its place.  One join builds the text: each further copy of a report of
    tens of MB costs more than the join itself.
    """
    doc = report._skeleton()
    doc["certificates"] = None
    head, _, tail = _canonical_json(doc).partition('"certificates": null')
    parts = [head, '"certificates": ']
    sep = "[\n"
    for t in report.texts:
        parts += [sep, t]
        sep = ",\n"
    parts.append("\n  ]" if report.texts else "[]")
    parts.append(tail)
    text = "".join(parts)
    if destination is not None:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)
    return text
