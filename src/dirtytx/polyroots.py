"""Real-root extraction for the low-degree polynomials of the library.

Every optimization in this package reduces to real roots of polynomials
of degree six or less.  A cubic with one coefficient sign change (the
amplitude and back-off stationarity cubics) has one positive root,
taken in closed form and polished inside a sign bracket.  Other roots
are companion-matrix eigenvalues polished by a few Newton steps.
:func:`stacked_real_roots` runs the companion route on every row of a
stack at once, and :func:`stacked_positive_roots` the closed form on the
precoder's amplitude cubics ``a x^3 + c x + d`` (``a > 0``, ``c >= 0 >
d / a``), with the single-row operations; other rows, and a stack of one
channel's polynomials, are solved row by row.
:func:`best_candidate` picks among the optimizers' scored candidates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolynomialError, RootStructureError

__all__ = [
    "RootReport",
    "real_roots",
    "stacked_real_roots",
    "unique_positive_root",
    "stacked_positive_roots",
    "best_candidate",
]

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
# Stacks of at most this many rows (one channel's quartic or four
# cubics) go to the single-row solvers, one row at a time.
_ROW_BY_ROW = 4


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
    if not np.isfinite(scale):
        raise DegeneratePolynomialError("polynomial coefficients must be finite")
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
    ``|p(root)| <= 1e-8 * max|coeff| * max(1, |root|)**degree``.  A
    coefficient that is not finite raises ``DegeneratePolynomialError``.
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


def _horner_rows(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_horner` on arrays: row ``i`` of ``x`` against row ``i`` of ``coeffs``."""
    shape = (-1,) + (1,) * (x.ndim - 1)
    acc = np.zeros_like(x)
    for c in coeffs.T:
        acc = acc * x + c.reshape(shape)
    return acc


def _polish_rows(coeffs: np.ndarray, deriv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_polish` of each ``x[j]`` against the polynomial ``coeffs[j]``.

    An entry leaves the loop where the scalar loop breaks, and also once
    a step returns it to the point it held one or two steps before: the
    later passes would only repeat steps already taken.
    """
    f = _horner_rows(coeffs, x)
    best, best_res = x.copy(), np.abs(f)
    idx = np.arange(x.size)
    prev = np.full_like(x, np.nan)
    for _ in range(12):
        d = _horner_rows(deriv, x)
        step = f / d
        moved = x - step
        f = _horner_rows(coeffs, moved)
        res = np.abs(f)
        turning = d != 0
        better = turning & (res < best_res[idx])
        best[idx[better]] = moved[better]
        best_res[idx[better]] = res[better]
        go = turning & ~(np.abs(step) <= 1e-16 * np.abs(moved)) & (moved != x) & (moved != prev)
        if not go.all():
            if not go.any():
                break
            idx, x, moved, f = idx[go], x[go], moved[go], f[go]
            coeffs, deriv = coeffs[go], deriv[go]
        x, prev = moved, x
    return best


def _stack(coefficients) -> np.ndarray:
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 2:
        raise ValueError("a coefficient stack must be 2-D, one polynomial per row")
    return coeffs


def stacked_real_roots(coefficients) -> np.ndarray:
    """:func:`real_roots` of every row of a ``(k, d+1)`` coefficient stack.

    Row ``i`` of the ``(k, d)`` result holds
    ``real_roots(coefficients[i]).roots`` (ascending), then NaN.  Rows
    with finite coefficients, a leading coefficient that survives the
    trim and a nonzero constant share one stacked companion eigenvalue
    call and one vectorized polish, made of the same operations as the
    single-row solver; any other row, and every row of a stack of at
    most four, goes through :func:`real_roots` itself and raises as it
    does.
    """
    coeffs = _stack(coefficients)
    degree = coeffs.shape[1] - 1
    out = np.full((coeffs.shape[0], max(degree, 0)), np.nan)
    fast = np.zeros(coeffs.shape[0], dtype=bool)
    if degree >= 1 and coeffs.shape[0] > _ROW_BY_ROW:
        scale = np.max(np.abs(coeffs), axis=1)
        with np.errstate(invalid="ignore"):
            fast = (np.all(np.isfinite(coeffs), axis=1) & (coeffs[:, -1] != 0)
                    & (np.abs(coeffs[:, 0]) > _TRIM_TOL * scale))
    for i in np.flatnonzero(~fast):
        roots = real_roots(coeffs[i]).roots
        out[i, :roots.size] = roots
    if not fast.any():
        return out
    coeffs, scale = coeffs[fast], scale[fast]
    work = coeffs / scale[:, None]
    deriv = work[:, :-1] * np.arange(degree, 0, -1)
    companion = np.zeros((work.shape[0], degree, degree))
    companion[:, 0, :] = -work[:, 1:] / work[:, :1]
    sub = np.arange(degree - 1)
    companion[:, sub + 1, sub] = 1.0
    z = np.linalg.eigvals(companion).astype(complex)
    real = ~(np.abs(z.imag) > _IMAG_TOL * np.maximum(1.0, np.hypot(z.real, z.imag)))
    rows = np.nonzero(real)[0]
    roots = np.full(z.shape, np.nan)
    with np.errstate(all="ignore"):
        roots[real] = _polish_rows(work[rows], deriv[rows], z.real[real])
        roots = np.sort(roots, axis=1)
        residuals = np.abs(_horner_rows(coeffs, roots))
        bound = (_RESIDUAL_TOL * scale)[:, None] * np.maximum(1.0, np.abs(roots)) ** degree
        ok = residuals <= bound
    order = np.argsort(~ok, axis=1, kind="stable")
    kept = np.take_along_axis(ok, order, axis=1)
    out[fast] = np.where(kept, np.take_along_axis(roots, order, axis=1), np.nan)
    return out


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


def _cubic_positive_roots(a, c, d) -> np.ndarray:
    """:func:`_cubic_positive_root` of ``a x^3 + c x + d`` on arrays, entry by entry.

    For ``a > 0``, ``c >= 0 > d / a`` the scalar form has no sign flip and a
    zero shift, and its discriminant is positive, so the start is always
    Cardano's; the operations left are those of the scalar form.  The
    cube root, where numpy's array loop may round differently from the C
    library, is taken per entry in Python.
    """
    lo, hi = np.zeros_like(a), 1.0 + np.maximum(c, -d) / a
    p, q = c / a, d / a
    with np.errstate(all="ignore"):
        u = -0.5 * q + np.sqrt(0.25 * q * q + p * p * p / 27.0)
        u = np.array([v ** (1.0 / 3.0) for v in u.tolist()])
        x = np.where(u != 0, u - p / (3.0 * u), 0.0)
    x = np.where((lo < x) & (x < hi), x, 0.5 * hi)
    out, idx = np.empty_like(a), np.arange(a.size)
    for _ in range(4000):
        # Python floats overflow silently in the scalar form; so do these.
        with np.errstate(all="ignore"):
            f = (a * x * x + c) * x + d
            lo, hi = np.where(f < 0, x, lo), np.where(f < 0, hi, x)
            slope = 3.0 * a * x * x + c
            nxt = np.where(slope != 0, x - f / slope, lo)
        narrow = hi - lo <= _ULPS * hi
        near = ~narrow & (np.abs(nxt - x) <= _ULPS * x)
        out[idx[narrow]] = 0.5 * (lo[narrow] + hi[narrow])
        out[idx[near]] = np.minimum(np.maximum(nxt[near], lo[near]), hi[near])
        x = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        more = ~(narrow | near)
        if not more.any():
            return out
        idx, x, lo, hi = idx[more], x[more], lo[more], hi[more]
        a, c, d = a[more], c[more], d[more]
    out[idx] = 0.5 * (lo + hi)
    return out


def stacked_positive_roots(coefficients) -> np.ndarray:
    """:func:`unique_positive_root` of every row of a coefficient stack, as a ``(k,)`` array.

    Cubic rows ``a x^3 + c x + d`` with ``a > 0``, ``c >= 0 > d / a`` and
    a finite ``(|a| + |c| + |d|) / a``, the precoder's amplitude cubics,
    are solved together with the operations of the closed form there;
    any other row, and every row of a stack of at most four, goes
    through :func:`unique_positive_root` itself and raises as it does.
    """
    coeffs = _stack(coefficients)
    closed = np.zeros(coeffs.shape[0], dtype=bool)
    if coeffs.shape[1] == 4 and coeffs.shape[0] > _ROW_BY_ROW:
        a, b, c, d = coeffs.T
        with np.errstate(all="ignore"):
            total = np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d)
            # ``d / a < 0``, not ``d < 0``: where the quotient underflows to
            # -0.0, a -0.0 ``b`` makes the scalar form's ``q`` +0.0.
            closed = (a > 0) & (b == 0) & (c >= 0) & (d / a < 0) & np.isfinite(total / a)
    out = np.empty(coeffs.shape[0])
    for i in np.flatnonzero(~closed):
        out[i] = unique_positive_root(coeffs[i])
    if closed.any():
        out[closed] = _cubic_positive_roots(*coeffs[closed][:, [0, 2, 3]].T)
    return out


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
