"""Real-root extraction for the low-degree polynomials of the library.

Every optimization in this package reduces to real roots of polynomials
of degree six or less.  A cubic with one coefficient sign change (the
amplitude and back-off stationarity cubics) has one positive root,
taken in closed form and polished inside a sign bracket.  Other roots
are companion-matrix eigenvalues polished by a few Newton steps.
:func:`best_candidate` picks among the optimizers' scored candidates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolynomialError, RootStructureError

__all__ = ["RootReport", "real_roots", "unique_positive_root", "best_candidate"]

# Companion eigenvalues with an imaginary part above this (relative)
# threshold are treated as genuinely complex and dropped.
_IMAG_TOL = 1e-7
# Leading coefficients below this fraction of the largest coefficient
# are treated as zero and trimmed, reducing the degree.
_TRIM_TOL = 1e-13
_RESIDUAL_TOL = 1e-8
# The closed-form root's polish stops at a step or bracket of this many ulps.
_ULPS = 4.0 * 2.0 ** -52
# Candidate values, and then candidate powers, this close (relative) tie.
_TIE_REL = 1e-12


@dataclass(frozen=True)
class RootReport:
    """Real roots of one polynomial, sorted ascending.

    ``residuals`` holds ``|p(root)|`` per root; near-multiple roots are
    reported individually rather than merged.
    """

    coefficients: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray

    @property
    def positive_roots(self) -> np.ndarray:
        return self.roots[self.roots > 0]


def _trim(coeffs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise DegeneratePolynomialError("all polynomial coefficients are zero")
    keep = np.abs(coeffs) > _TRIM_TOL * scale
    first = int(np.argmax(keep))
    trimmed = coeffs[first:]
    if trimmed.size <= 1:
        raise DegeneratePolynomialError("polynomial has no remaining degree after trimming")
    return trimmed


def _horner(coeffs, x: float) -> float:
    """``np.polyval`` on Python floats: the same operations in the same order."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _polish(coeffs: list, deriv: list, x: float) -> float:
    """A few guarded Newton steps around a companion eigenvalue.

    They stop on the relative step ``|step| <= 1e-16 * |x|``, so a root
    far below 1 is refined to its own scale.
    """
    best = x
    best_res = abs(_horner(coeffs, x))
    for _ in range(12):
        d = _horner(deriv, x)
        if d == 0:
            break
        step = _horner(coeffs, x) / d
        x = x - step
        res = abs(_horner(coeffs, x))
        if res < best_res:
            best, best_res = x, res
        if abs(step) <= 1e-16 * abs(x):
            break
    return best


def real_roots(coefficients) -> RootReport:
    """All real roots of a real-coefficient polynomial.

    Coefficients are highest power first.  The leading coefficient may
    be (numerically) zero; the degree is reduced accordingly.  Each
    reported root satisfies
    ``|p(root)| <= 1e-8 * max|coeff| * max(1, |root|)**degree``.
    """
    coeffs = _trim(np.atleast_1d(np.asarray(coefficients, dtype=float)))
    degree = coeffs.size - 1
    scale = np.max(np.abs(coeffs))
    work = coeffs / scale
    deriv = np.polyder(work).tolist()

    raw = np.roots(work)
    plain = work.tolist()
    out = []
    for z in raw:
        if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z)):
            continue
        out.append(_polish(plain, deriv, float(z.real)))
    out.sort()
    roots = np.array(out, dtype=float)
    residuals = np.abs(np.polyval(coeffs, roots))
    bound = _RESIDUAL_TOL * scale * np.maximum(1.0, np.abs(roots)) ** degree
    ok = residuals <= bound
    return RootReport(coefficients=coeffs, roots=roots[ok], residuals=residuals[ok])


def _cubic_positive_root(a: float, b: float, c: float, d: float) -> float:
    """The one positive root of a cubic with one coefficient sign change.

    The start is the largest real root of the depressed cubic
    ``t^3 + p t + q`` (``x = t - b/(3a)``): stable Cardano when the
    discriminant is >= 0, else the trigonometric form.  Newton steps
    stay in the bracket ``p(lo) < 0 < p(hi)`` opened at 0 and the Cauchy
    bound, bisect when a step leaves it, and stop on a step or bracket
    of a few ulps: where the closed form cancels, a small residual does
    not mean an accurate root.
    """
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
    coeffs, deriv = (a, b, c, d), (3.0 * a, 2.0 * b, c)
    lo, hi = 0.0, 1.0 + max(abs(b), abs(c), abs(d)) / a
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = (2.0 * shift * shift - c) * shift + d
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc >= 0:
        u = -0.5 * q - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        x = (u - p / (3.0 * u) if u != 0 else 0.0) - shift
    else:
        r = math.sqrt(-p / 3.0)
        cos3 = max(-1.0, min(1.0, -0.5 * q / r / r / r))
        x = 2.0 * r * math.cos(math.acos(cos3) / 3.0) - shift
    if not lo < x < hi:
        x = 0.5 * hi
    # Far above the root the cubic term rules and a Newton step keeps
    # about 2/3 of x; the cap leaves room to descend from a Cauchy bound
    # that a tiny ``a`` puts hundreds of decades above the root.
    for _ in range(4000):
        f = _horner(coeffs, x)
        lo, hi = (x, hi) if f < 0 else (lo, x)
        if hi - lo <= _ULPS * hi:
            break
        slope = _horner(deriv, x)
        nxt = x - f / slope if slope else lo
        if abs(nxt - x) <= _ULPS * x:
            return min(max(nxt, lo), hi)
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def unique_positive_root(coefficients) -> float:
    """The single positive root of a sign-structured polynomial.

    Only exact leading zeros are stripped before the structure test: a
    finite cubic with a nonzero constant and one coefficient sign change
    has one positive root (Descartes) and takes the closed form, however
    small its leading coefficient.  Any other polynomial goes through
    :func:`real_roots`, which trims negligible leading coefficients.

    Raises
    ------
    RootStructureError
        If zero or more than one distinct positive root is found, which
        means the caller's structural assumption about the coefficient
        signs does not hold.
    """
    coeffs = np.atleast_1d(np.asarray(coefficients, dtype=float))
    coeffs = coeffs[int(np.argmax(coeffs != 0)):]
    plain = coeffs.tolist()
    signs = [v > 0 for v in plain if v != 0]
    if (len(plain) == 4 and plain[-1] != 0 and math.isfinite(sum(map(abs, plain)) / plain[0])
            and sum(s != t for s, t in zip(signs, signs[1:])) == 1):
        return _cubic_positive_root(*plain)
    pos = real_roots(coeffs).positive_roots
    if pos.size == 0:
        raise RootStructureError("expected one positive root, found none")
    if pos.size > 1:
        raise RootStructureError("expected one positive root, found %d: %s" % (pos.size, pos))
    return float(pos[0])


def best_candidate(values, powers) -> tuple[int, bool]:
    """``(index, tied)`` of the best candidate: the one tie rule of the optimizers.

    Values within ``1e-12 * |best|`` of the smallest tie; among them the
    smallest power wins, powers within 1e-12 relative counting as equal;
    then the earlier candidate.  ``tied`` says the tied candidates sit at
    distinct powers.  A maximizer passes negated scores, and ``inf`` for a
    candidate that must not win; no finite value raises ``ValueError``.
    Plain Python, since the lists are short.
    """
    best = min(values)
    if not math.isfinite(best):
        raise ValueError("no candidate has a finite value")
    cut = best + _TIE_REL * abs(best)
    tie = [k for k, v in enumerate(values) if v <= cut]
    low = min(powers[k] for k in tie)
    near = low + _TIE_REL * abs(low)
    pick = next(k for k in tie if powers[k] <= near)
    return pick, any(powers[k] > near for k in tie)
