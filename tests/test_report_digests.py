"""Byte identity of the scan reports on a fixed corpus.

One SHA-256 covers ``report_to_json`` + ``report_to_csv`` of 340 scans: the
curves [0,-1,1,0,0] and [1,-1,0,-2,-2] over seven fields (their special places
include the dyadic places of degree 2 over Q(i), Q(sqrt -3), Q(sqrt 2),
Q(sqrt 5) and Q(sqrt 13)), plus 11a1 and two Legendre curves with 5 and 6
reduced places over Q, at ten values of X (below and above 4, where the scan
switches from enumeration to generators) and both parities. A change to how the
scan counts must leave these bytes alone; the digest was recorded before the
F_2-linear count replaced the set-of-tuples closure.
"""

import hashlib

from twistparity.curves import curve
from twistparity.experiments import report_to_csv, report_to_json, scan_density
from twistparity.numberfield import quadratic_field, rational_field

CORPUS_DIGEST = "32e1ffdcd08fd88082f603192e77a6ad4a0bc2b08487f9206333e7bcfbb7382e"

XS = (1, 2, 3, 4, 5, 7, 12, 25, 60, 400)


def _corpus():
    for m in (None, -1, -3, -7, 2, 5, 13):
        K = rational_field() if m is None else quadratic_field(m)
        for coeffs in ([0, -1, 1, 0, 0], [1, -1, 0, -2, -2]):
            yield curve(K, coeffs)
    Q = rational_field()
    for coeffs in ([0, -1, 1, -10, -20], [0, 586, 0, -1767, 0], [0, -50, 0, -17871, 0]):
        yield curve(Q, coeffs)


def test_scan_reports_are_byte_identical_on_the_corpus():
    digest = hashlib.sha256()
    scans = 0
    for E in _corpus():
        for X in XS:
            for parity in (None, "odd"):
                r = scan_density(E, X, parity_override=parity)
                digest.update(report_to_json(r).encode())
                digest.update(report_to_csv(r).encode())
                scans += 1
    assert scans == 340
    assert digest.hexdigest() == CORPUS_DIGEST
