"""Benchmark workloads: inputs made from a seed, the timed public-API calls,
and the exact-output gate that checks every result.

A workload is a pair of functions in ``WORKLOADS``. ``setup(seed)`` parses the
inputs (its time is part of ``setup_s``); ``run(inputs, expected)`` makes the
timed calls and returns an ``Outcome``. Every call goes through the public API
that the command-line interface uses, so the numbers are what a CLI user pays.
Calls go through the ``twistparity`` package attributes, so a traced run sees
them.
"""

from __future__ import annotations

import hashlib
import random
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction

import twistparity as tp
from twistparity.errors import TwistParityError
from twistparity.experiments import report_to_json

# Inputs vary with the seed only inside a band of a few percent, so runs with
# different seeds do nearly the same work; each value has a recorded result.
SEED_VARIANTS = 8

E11A1 = "[0,-1,1,-10,-20]"

# (field, curve, X values by seed, density the paper predicts)
SCAN_Q = [("Q", E11A1, [8000 + 30 * k for k in range(SEED_VARIANTS)], Fraction(1, 2))]
SCAN_QUADRATIC = [
    ("Q(sqrt -1)", "[0,-1,1,0,0]", [300 + 2 * k for k in range(SEED_VARIANTS)], Fraction(1, 4)),
    ("Q(sqrt 5)", "[0,-1,1,0,0]", [150 + 2 * k for k in range(SEED_VARIANTS)], Fraction(1, 2)),
]
# (curve, twist parameter or None, |delta| bounds by seed)
VERIFY_Q = [
    (E11A1, None, [200 + k for k in range(SEED_VARIANTS)]),
    (E11A1, 11, [80 + k for k in range(SEED_VARIANTS)]),       # pot. mult. at 11
    ("[1,0,0,-1,1]", -1, [80 + k for k in range(SEED_VARIANTS)]),  # pot. mult. at 2
]

CLASSIFY_FIELDS = ["Q", "Q(sqrt -1)", "Q(sqrt -3)", "Q(sqrt -7)", "Q(sqrt 2)", "Q(sqrt 5)"]
CLASSIFY_PER_FIELD = 4
# Per-curve budget. Measured at the seed commit in one warm process, the
# curves of seeds 0..9 take at most 15.1 s or at least 28.8 s (up to minutes in
# the O(p) split-prime root search of ROADMAP 5b); 20 s sits in the widest gap.
# Latencies form a continuum, so a cold, slow host can push the 15 s curves over.
CLASSIFY_BUDGET_S = 20.0


@dataclass
class Outcome:
    """What one cold pass of a workload did: ``ops`` attempted, ``failed`` among
    them (wrong exact output, unexpected exception, or over budget), ``wrong``
    the subset with a wrong output or unexpected exception. ``units`` is the
    denominator of the traced calls-per-op ratios: generators of C(K, X) for a
    scan, twists for the oracle, curves for classification."""

    ops: int = 0
    units: int = 0
    failed: int = 0
    wrong: int = 0
    over_budget: int = 0
    op_ms: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, note: str, wrong: bool = True, ops: int = 1):
        self.failed += ops
        self.wrong += ops if wrong else 0
        self.notes.append(note)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Scans: scan_density, as `twistparity scan`


def scan_key(field_spec: str, curve_text: str, X: int) -> str:
    return f"{field_spec}|{curve_text}|{X}"


def _scan_setup(table, seed):
    out = []
    for field_spec, curve_text, xs, predicted in table:
        K = tp.parse_field(field_spec)
        out.append((scan_key(field_spec, curve_text, xs[seed % SEED_VARIANTS]),
                    tp.parse_curve(K, curve_text), xs[seed % SEED_VARIANTS], predicted))
    return out


def _scan_run(inputs, expected) -> Outcome:
    res = Outcome()
    for key, E, X, predicted in inputs:
        res.ops += 1
        try:
            report = tp.scan_density(E, X)
        except Exception as e:  # any error here is a failed op, not a crash of the run
            res.fail(f"{key}: {type(e).__name__}: {e}")
            continue
        res.units += report.total.bit_length() - 1 if report.method == "fibers" else report.total
        if report.fraction != predicted:
            res.fail(f"{key}: fraction {report.fraction} != {predicted}")
        elif digest(report_to_json(report)) != expected["scan"].get(key):
            res.fail(f"{key}: report bytes differ from the recorded digest")
    return res


def scan_q_setup(seed):
    return _scan_setup(SCAN_Q, seed)


def scan_quadratic_setup(seed):
    return _scan_setup(SCAN_QUADRATIC, seed)


# ---------------------------------------------------------------------------
# Oracle cross-check: oracle_crosscheck, as `twistparity verify`


def verify_key(curve_text: str, twist, bound: int) -> str:
    return f"Q|{curve_text}|{twist}|{bound}"


def verify_q_setup(seed):
    K = tp.parse_field("Q")
    out = []
    for curve_text, twist, bounds in VERIFY_Q:
        E = tp.parse_curve(K, curve_text)
        if twist is not None:
            E = tp.quadratic_twist(E, K.elem(twist))
        B = bounds[seed % SEED_VARIANTS]
        out.append((verify_key(curve_text, twist, B), E, B))
    return out


def verify_q_run(inputs, expected) -> Outcome:
    res = Outcome()
    for key, E, B in inputs:
        tested, unsupported = expected["verify"][key]
        twists = tested + unsupported
        res.ops += twists
        res.units += twists
        try:
            rep = tp.oracle_crosscheck(E, delta_bound=B)
        except Exception as e:  # any error here is a failed op, not a crash of the run
            res.fail(f"{key}: {type(e).__name__}: {e}", ops=twists)
            continue
        if (rep.tested, rep.unsupported) != (tested, unsupported):
            res.fail(f"{key}: tested/unsupported {rep.tested}/{rep.unsupported} "
                     f"!= recorded {tested}/{unsupported}", ops=twists)
        elif rep.mismatches:
            res.fail(f"{key}: {len(rep.mismatches)} oracle mismatches", ops=len(rep.mismatches))
    return res


# ---------------------------------------------------------------------------
# Classification mix: kappa, predicted_even_density, root_number per curve,
# as `twistparity classify` / `predict`


def classify_corpus(seed: int) -> list[tuple[str, str]]:
    """(field, curve) pairs: a1, a3 in {0, 1}; a2, a4, a6 with rational part in
    [-4, 4] and w-part in [-2, 2] (w = sqrt m; none over Q)."""
    rng = random.Random(seed)

    def coeff(quadratic):
        r = rng.randint(-4, 4)
        s = rng.randint(-2, 2) if quadratic else 0
        return f"{r}{s:+d}*w" if s else str(r)

    corpus = []
    for field_spec in CLASSIFY_FIELDS:
        quadratic = field_spec != "Q"
        for _ in range(CLASSIFY_PER_FIELD):
            a1, a3 = rng.randint(0, 1), rng.randint(0, 1)
            coeffs = [str(a1), coeff(quadratic), str(a3), coeff(quadratic), coeff(quadratic)]
            corpus.append((field_spec, "[" + ",".join(coeffs) + "]"))
    return corpus


def classify_key(field_spec: str, curve_text: str) -> str:
    return f"{field_spec}|{curve_text}"


def classify_setup(seed):
    out = []
    for field_spec, curve_text in classify_corpus(seed):
        try:
            E = tp.parse_curve(tp.parse_field(field_spec), curve_text)
        except TwistParityError as e:
            E = type(e).__name__
        out.append((classify_key(field_spec, curve_text), E))
    return out


def _named(call):
    try:
        return str(call())
    except TwistParityError as e:
        return type(e).__name__


def classify_outcome(E) -> list:
    """[kappa, parity, density, root number]; named errors are outcomes."""
    if isinstance(E, str):
        return [E]
    try:
        rep = tp.kappa(E)
        head = [str(rep.kappa), rep.parity]
    except TwistParityError as e:
        head = [type(e).__name__, None]
    return head + [_named(lambda: tp.predicted_even_density(E)), _named(lambda: tp.root_number(E))]


class OverBudget(BaseException):
    """Raised by the alarm inside a curve that ran over its budget. A
    BaseException, so that no `except Exception` in the library swallows it."""


def _alarm(signum, frame):
    raise OverBudget()


def classify_run(inputs, expected) -> Outcome:
    res = Outcome()
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        for key, E in inputs:
            res.ops += 1
            res.units += 1
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, CLASSIFY_BUDGET_S)
            try:
                got = classify_outcome(E)
            except OverBudget:
                res.over_budget += 1
                res.fail(f"{key}: over the {CLASSIFY_BUDGET_S:g} s budget", wrong=False)
                continue
            except Exception as e:  # an unnamed error is a failed op, not a crash of the run
                res.fail(f"{key}: unexpected {type(e).__name__}: {e}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            res.op_ms.append((time.perf_counter() - t0) * 1e3)
            want = expected["classify"].get(key)
            if got != want:
                res.fail(f"{key}: {got} != recorded {want}")
    finally:
        signal.signal(signal.SIGALRM, old)
    return res


WORKLOADS = {
    "scan-Q": (scan_q_setup, _scan_run),
    "scan-quadratic": (scan_quadratic_setup, _scan_run),
    "verify-Q": (verify_q_setup, verify_q_run),
    "classify-mix": (classify_setup, classify_run),
}
