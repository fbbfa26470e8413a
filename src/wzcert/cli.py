"""Command-line interface.

Exit codes: 0 when the command succeeds and the conclusion is CERTIFIED (or a
data command succeeds); 1 when it succeeds with REJECTED or INCONCLUSIVE (for
`tame`: a FAIL verdict); 2 on usage or internal errors.  The environment
variable WZ_CACHE_DIR overrides the cache location.
"""

import argparse
import sys

from . import certify as certify_mod
from . import hecke, qseries, tame
from .cache import persist
from .primes import is_prime


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wzcert",
        description="Exact mod-p certification of level-one eigenform "
                    "hypotheses for weight-zero symmetric-power lifts.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify one prime in one regime")
    c.add_argument("--p", type=int, required=True, help="prime to certify (> 5)")
    c.add_argument("--mode", choices=["ordinary", "nonordinary"], required=True)
    c.add_argument("--out", help="write the certificate JSON to this path")
    c.add_argument("--bimg", type=int, default=None,
                   help="witness-search bound (>= 2) for the image checks; "
                   "--mode ordinary only")

    s = sub.add_parser("scan", help="certify all primes up to a bound")
    s.add_argument("--pmax", type=int, required=True)
    s.add_argument("--mode", choices=["ordinary", "nonordinary", "both"],
                   required=True)
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes, >= 1 (at most one per prime)")
    s.add_argument("--out", help="write the scan report JSON to this path; "
                   "required for --mode both, which writes OUT.<mode>.json")

    e = sub.add_parser("eigenform", help="print q-expansion coefficients")
    e.add_argument("--weight", type=int, required=True)
    e.add_argument("--prec", type=int, required=True)
    e.add_argument("--modp", type=int, default=None,
                   help="print mod-p eigen system expansions")

    t = sub.add_parser("tame", help="print inertial multisets and lift verdict")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--case", choices=["ordinary", "nonordinary"], required=True)
    return parser


def _cmd_certify(args):
    cert = certify_mod.certify(args.p, args.mode, B_img=args.bimg)
    text = certify_mod.emit_certificate(cert, args.out)
    if args.out:
        print(f"{args.mode} certificate for p={args.p}: {cert.conclusion} "
              f"-> {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0 if cert.conclusion == certify_mod.CERTIFIED else 1


def _cmd_scan(args):
    both = args.mode == "both"
    if both and not args.out:
        raise SystemExit2("--mode both writes one report per mode and needs --out")
    modes = certify_mod.MODES if both else [args.mode]
    for report in certify_mod.scan(args.pmax, modes, jobs=args.jobs):
        out = args.out
        if both:
            stem = out[:-5] if out.endswith(".json") else out
            out = f"{stem}.{report.mode}.json"
        text = certify_mod.emit_report(report, out)
        if out:
            print(f"{report.mode} scan to {args.pmax}: certified "
                  f"{report.certified} -> {out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
    return 0


def _cmd_eigenform(args):
    k, prec, p = args.weight, args.prec, args.modp
    if p is None:
        d = qseries.dim_cusp(k)
        if d != 1:
            raise SystemExit2(
                f"dim S_{k} = {d}; exact expansions need a one-dimensional "
                "space (use --modp for eigen system expansions)")
        form = qseries.miller_basis(k, prec).forms[0]
        for n, c in enumerate(form.coeffs):
            print(f"{n} {c}")
        return 0
    blocks = hecke.expansions(p, k, prec)
    if not blocks:
        print(f"# no cusp forms in weight {k}")
        return 0
    if not blocks[0]["ss"]:
        covered = sum(block["d"] * block["mult"] for block in blocks)
        print(f"# the Hecke action on S_{k} mod {p} is not semisimple: the "
              f"eigen systems cover {covered} of {qseries.dim_cusp(k)} dimensions")
    for i, block in enumerate(blocks):
        print(f"# system {i}: degree {block['d']}, multiplicity {block['mult']}")
        for n, coords in enumerate(block["coeffs"]):
            print(f"{n} {','.join(str(c) for c in coords)}")
    return 0


def _cmd_tame(args):
    p, k = args.p, args.k
    if not is_prime(p) or p <= 5:
        raise SystemExit2("p must be a prime > 5")
    # every check runs before anything is printed, so an invalid k or n
    # leaves stdout empty
    if args.case == "ordinary":
        ns = [args.n] if args.n is not None else [p - 2, p - 1]
        results = [(n, tame.lift_check_ordinary(p, k, n)) for n in ns]
    else:
        if args.n is not None and args.n != p:
            raise SystemExit2("the non-ordinary case always has n = p")
        results = [(p, tame.lift_check_nonordinary(p, k))]
    for n, result in results:
        print(f"n = {n}:")
        print(f"computed: {_fmt_type(result.got)}")
        print(f"expected: {_fmt_type(result.expected)}")
        print(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    return 0 if all(result.passed for _n, result in results) else 1


def _fmt_type(T):
    parts = [f"eps^{e}" for e in sorted(T.level1_exponents())]
    parts += [f"omega2^({e},{pe})" for e, pe in sorted(T.level2_pairs())]
    return " + ".join(parts) if parts else "(empty)"


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 2."""


@persist
def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "certify": _cmd_certify,
        "scan": _cmd_scan,
        "eigenform": _cmd_eigenform,
        "tame": _cmd_tame,
    }
    try:
        return handlers[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
