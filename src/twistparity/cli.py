"""Command-line interface.

Subcommands: classify, predict, scan, verify, lemmas.
Exit codes: 0 pass, 1 math-check failure, 2 input error (a bad flag, literal,
field or singular curve, an integer past the factoring budget, a listing past
the enumeration guard, or a scan report that cannot be written to --out) or
output error (a standard output that cannot be written: a closed pipe or a
full device),
3 unsupported curve, 4 internal error (a failed invariant, a zero where the
package needs a nonzero element, a multiplier m_v asked of the wrong kind of
representation, or any exception that is not a named package error: a bug,
not bad input).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from .arith import primes_up_to
from .curves import local_root_number, parse_curve, reduction_type
from .errors import (
    ClassNumberNotOne,
    ExplosionGuard,
    FactorizationBudgetExceeded,
    InternalInvariantError,
    Malformed,
    NotSquarefree,
    ParityUnavailable,
    SingularCurve,
    UnsupportedRepresentation,
    WrongRepClass,
    ZeroElement,
    ZeroTwistParameter,
)
from .experiments import (
    emit_report,
    oracle_crosscheck,
    scan_density,
)
from .heckechars import surjectivity_check
from .localfields import completion, hilbert_symbol
from .numberfield import archimedean_places, parse_field, places_above
from .parity import (
    SPECIAL_RAMIFIED_QUAD,
    SPECIAL_UNRAMIFIED,
    UNSUPPORTED,
    counting_check,
    gauss_sum_check,
    kappa,
    kappa_v_at,
    place_partition,
    predicted_even_density,
    random_gamma_config,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _at_least(lo, kind=int):
    """argparse type: an int (or kind) >= lo; anything else, NaN too, exits 2 with usage."""
    def parse(text: str):
        x = kind(text)
        if not x >= lo:  # NaN compares false
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return x
    parse.__name__ = kind.__name__  # argparse reports "invalid int value" when int() fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistparity",
        description="Root-number change, local twist factors and even-rank "
                    "densities in quadratic twist families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, principal=True):
        p.add_argument("--field", default="Q", help="Q or Q(sqrt m)")
        p.add_argument("--curve", required=True,
                       help="[a1,a2,a3,a4,a6] or [a4,a6]; entries like 3/2+1/2*w")
        if principal:  # verify skips unsupported twists: the flag would change nothing
            p.add_argument("--assume-principal-series", action="store_true",
                           help="treat uncertifiable additive places as principal series")

    p = sub.add_parser("classify", help="per-place reduction and twist data")
    common(p)

    p = sub.add_parser("predict", help="kappa and the predicted even-rank density")
    common(p)
    p.add_argument("--parity", choices=("even", "odd"), default=None,
                   help="override the rank parity of the base curve")

    p = sub.add_parser("scan", help="exact density scan over characters of norm <= X")
    common(p)
    p.add_argument("--x", type=_at_least(1), required=True, help="norm bound X")
    p.add_argument("--parity", choices=("even", "odd"), default=None)
    p.add_argument("--out", default=None, help="report file path")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="report format for --out (default json)")
    p.add_argument("--tolerance", type=_at_least(0, float), default=None,
                   help="allowed |fraction - predicted| (default 0.02 over Q, 0.05 else)")

    p = sub.add_parser("verify", help="twisted-parity oracle cross-check")
    common(p, principal=False)
    p.add_argument("--x", type=_at_least(1), required=True,
                   help="|delta| bound over Q; character norm bound otherwise")

    p = sub.add_parser("lemmas", help="counting lemma, surjectivity, Gauss sums")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--x", type=_at_least(1), default=20,
                   help="norm bound for the surjectivity scan")
    return ap


def _load(args):
    K = parse_field(args.field)
    E = parse_curve(K, args.curve)
    return K, E


def cmd_classify(args) -> int:
    K, E = _load(args)
    part = place_partition(E, assume_principal_series=True)
    rows = []
    unsupported = []
    for v, rep in part.sigma1 + part.sigma2 + part.other_bad:
        lv = completion(K, v)
        rd = reduction_type(E, v)
        if rep.kind == UNSUPPORTED:
            unsupported.append(v)
            if not args.assume_principal_series:
                continue
        mu = "-"
        if rep.kind == SPECIAL_UNRAMIFIED:
            mu = f"{rep.split_sign:+d}"
        elif rep.kind == SPECIAL_RAMIFIED_QUAD:
            mu = f"{hilbert_symbol(lv.uniformizer, rep.split_twist, lv):+d}"
        try:
            kv = kappa_v_at(E, v)
        except UnsupportedRepresentation:
            kv = Fraction(1)
        try:
            wv = f"{local_root_number(E, v):+d}"
        except UnsupportedRepresentation:
            wv = "?"
        rows.append((str(v), rd.red_type, rep.kind, mu, str(kv), wv))
    if unsupported and not args.assume_principal_series:
        print(f"unsupported (supercuspidal or unknown) representation at "
              f"{', '.join(str(v) for v in unsupported)}")
        return EXIT_UNSUPPORTED
    if not rows:
        arch = archimedean_places(K)
        note = "kappa = 0 (real place)" if any(v.kind == "real" for v in arch) else "kappa = 1"
        print(f"no bad places; {note}")
    else:
        print(f"{'place':>10}  {'reduction':>18}  {'representation':>36}  "
              f"{'mu(pi)':>6}  {'kappa_v':>8}  {'w_v':>4}")
        for r in rows:
            print(f"{r[0]:>10}  {r[1]:>18}  {r[2]:>36}  {r[3]:>6}  {r[4]:>8}  {r[5]:>4}")
    rep = kappa(E, assume_principal_series=args.assume_principal_series)
    print(f"kappa = {rep.kappa}")
    if rep.parity is not None:
        print(f"root number w = {'+1' if rep.parity == 'even' else '-1'}  "
              f"(rank parity {rep.parity})")
    return EXIT_OK


def cmd_predict(args) -> int:
    K, E = _load(args)
    rep = kappa(E, assume_principal_series=args.assume_principal_series)
    for line in rep.factor_lines():
        print(line)
    print(f"kappa = {rep.kappa}")
    try:
        dens = predicted_even_density(E, parity_override=args.parity,
                                      assume_principal_series=args.assume_principal_series)
    except ParityUnavailable:
        print("rank parity unavailable for this curve; pass --parity even|odd")
        return EXIT_UNSUPPORTED
    parity = args.parity or rep.parity
    print(f"rank parity: {parity}")
    print(f"predicted even density: {dens}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.format is not None and not args.out:
        print(f"input error: --format {args.format} needs --out: the report is only "
              f"written to a file", file=sys.stderr)
        return EXIT_INPUT
    K, E = _load(args)
    report = scan_density(E, args.x, parity_override=args.parity,
                          assume_principal_series=args.assume_principal_series)
    tol = args.tolerance
    if tol is None:
        tol = 0.02 if K.m is None else 0.05
    if args.out:
        fmt = args.format or "json"
        try:
            emit_report(report, fmt, args.out)
        except OSError as e:
            print(f"input error: cannot write report to {args.out}: {e.strerror or e}",
                  file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote {fmt} report to {args.out}")
    err = abs(float(report.fraction) - float(report.predicted))
    print(f"curve {report.curve} over {report.field}, X = {report.X} "
          f"({report.method} scan, parity {report.parity})")
    print(f"even fraction = {report.fraction}  predicted = {report.predicted}  "
          f"|diff| = {err:.6f}")
    ok = err <= tol
    print("PASS" if ok else f"FAIL (tolerance {tol})")
    return EXIT_OK if ok else EXIT_MATH_FAIL


def cmd_verify(args) -> int:
    K, E = _load(args)
    if K.m is None:
        rep = oracle_crosscheck(E, delta_bound=args.x)
    else:
        rep = oracle_crosscheck(E, X=args.x)
    print(f"tested {rep.tested} twists, {rep.unsupported} skipped as unsupported")
    if rep.mismatches:
        for m in rep.mismatches[:20]:
            print(f"MISMATCH delta={m.delta}: table path {m.table_path:+d}, "
                  f"reduction path {m.reduction_path:+d}")
        print(f"FAIL: {len(rep.mismatches)} mismatches")
        return EXIT_MATH_FAIL
    print("PASS: 0 mismatches")
    return EXIT_OK


def cmd_lemmas(args) -> int:
    ok = True
    if args.trials <= 0:
        print("WARNING: trials = 0, counting-lemma check passes vacuously")
    else:
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.trials):
            cfg = random_gamma_config(rng)
            rep = counting_check(cfg)
            if not rep.equal:
                bad += 1
        print(f"counting lemma: {args.trials - bad}/{args.trials} configs exact")
        ok &= bad == 0

    K = parse_field("Q")
    places = [archimedean_places(K)[0]] + [places_above(K, p)[0] for p in (2, 3, 5)]
    rep = surjectivity_check(K, places, args.x)
    print(f"surjectivity at (oo,2,3,5) with X={args.x}: "
          f"{rep.hit_count}/{rep.gamma_size} classes hit, min fiber {rep.min_fiber}")
    ok &= rep.surjective

    gbad = [p for p in primes_up_to(499)[1:] if not gauss_sum_check(p)]
    print(f"gauss-sum identity for odd p < 500: {'all pass' if not gbad else gbad}")
    ok &= not gbad

    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _discard_stdout() -> None:
    """Point the interpreter's own stdout at the null device once a write to it
    has failed. The bytes that write left in the buffer are then flushed there
    at exit, instead of failing a second time with "Exception ignored" and exit
    120 (the Python docs' note on SIGPIPE). A stdout an in-process caller put
    in its place is left alone."""
    if sys.stdout is None or sys.stdout is not sys.__stdout__:
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags; keep that contract
        return int(e.code) if e.code else 0
    commands = {"classify": cmd_classify, "predict": cmd_predict, "scan": cmd_scan,
                "verify": cmd_verify, "lemmas": cmd_lemmas}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed or full stdout shows here, not at exit
        return code
    except OSError as e:
        print(f"output error: {e.strerror or e}", file=sys.stderr)
        _discard_stdout()
        return EXIT_INPUT
    except (InternalInvariantError, ZeroElement, WrongRepClass) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (Malformed, NotSquarefree, ClassNumberNotOne, SingularCurve,
            ZeroTwistParameter, FactorizationBudgetExceeded, ExplosionGuard) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedRepresentation, ParityUnavailable) as e:
        print(f"unsupported curve: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
