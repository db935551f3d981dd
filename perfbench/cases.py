"""Seeded case tables of the four workloads.

A case is one operation: a zero-argument call into the package, which is the only
thing the runner times, and a check of its output, which runs outside the timed
region.  Every continuous input is drawn by Latin hypercube over its range, so a
table covers its ranges evenly.  The design of a table (which bin of one input goes
with which bin of another, which coupling matrix stands for each cost stratum, the
order of the cases) is the same for every seed; the seed places each point inside
its bin and perturbs each matrix.  So every seed gives other inputs, while the cost
of each case, and with it every time metric, depends little on the seed.  Package
functions are always reached through their module attribute, so
that the layer tracer's patches see every call.

Two cases are fixed, not seeded: they hit a known fault of the package on every
run and are counted as failed operations (see README.md).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from xideform import cli, funceq, ode_solutions, xi_core, xi_multi
from xideform.gaussmat import RhoMatrix
from xideform.quadrature import QuadSpec

WORKLOADS = ("points1d", "grid1d", "tensor_nd", "segments")

DIGITS_CAP = 17.0
EPS = np.finfo(float).eps

# the 1D contract: |value - ref| <= max(abs_tol, rel_tol |ref|), i.e. digits relative to
# max(|ref|, abs_tol / rel_tol) of at least -log10(rel_tol)
SPEC_1D = QuadSpec()

# F1: the adaptive log-axis rule stops on abs_tol alone and runs out of panels
F1_XI_DS = (0.0636, -0.7913 + 12.6839j, 2)
# F2: segment_weighted_mellin's fixed 10 panels on a long segment from 1/2
F2_CANONICAL = (0.25, 0.5 + 30j)


@dataclass
class Case:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, object], tuple]  # (output, oracle table) -> (ok, digits or None)
    fault: str | None = None  # name of the known fault a fixed failing case hits


def digits(err: float, scale: float) -> float:
    """Correct significant digits of a result whose error is err on the given scale."""
    if err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err / scale))


class Draws:
    """Random inputs of one workload: `design` is the same for every seed, `jitter` is seeded."""

    def __init__(self, name: str, seed: int):
        self.design = np.random.default_rng([WORKLOADS.index(name)])
        self.jitter = np.random.default_rng([WORKLOADS.index(name), seed])

    def latin_hypercube(self, n: int, ranges) -> np.ndarray:
        """n points; each coordinate takes one value from each of n equal bins of its
        range.  The pairing of bins is the design's, the place inside a bin the seed's."""
        cols = [lo + (hi - lo) * (self.design.permutation(n) + self.jitter.random(n)) / n for lo, hi in ranges]
        return np.column_stack(cols)


# ---------------------------------------------------------------------------------------
# points1d: independent scalar evaluations


def _oracle_check(name, fields, spec=SPEC_1D):
    """The value against the oracle within the spec's tolerance max(abs_tol, rel_tol |ref|)."""

    def check(value, oracle):
        ref = oracle.get(name, *fields)
        ref_c = complex(ref)
        err = float(abs(ref - type(ref)(value.value)))
        ok = err <= max(spec.abs_tol, spec.rel_tol * abs(ref_c))
        return ok, digits(err, max(abs(ref_c), spec.abs_tol / spec.rel_tol))

    return check


POINT_KINDS = {  # kind: (call into the package, oracle quantity, its extra arguments)
    "xi": (lambda r, s: xi_core.xi(r, s), "xi", ()),
    "xi_tilde": (lambda r, s: xi_core.xi_tilde(r, s), "xi_tilde", ()),
    "xi_ds1": (lambda r, s: xi_core.xi_ds(r, s, 1), "xi_ds", (1,)),
    "xi_ds2": (lambda r, s: xi_core.xi_ds(r, s, 2), "xi_ds", (2,)),
    "d_rho_xi": (lambda r, s: xi_core.d_rho_xi(r, s), "d_rho_xi", ()),
}
POINTS_PER_KIND = 20
# rho below about 0.08 with Re s < 0 reaches fault F1 for some draws, so seeded draws
# start at 0.1 and F1 is represented by one fixed case instead
POINT_RANGES = ((math.log(0.1), math.log(2.0)), (-1.0, 3.0), (0.0, 60.0))


def points1d(seed: int) -> list:
    draws = Draws("points1d", seed)
    cases = []
    for kind, (call, quantity, extra) in POINT_KINDS.items():
        for log_rho, re_s, im_s in draws.latin_hypercube(POINTS_PER_KIND, POINT_RANGES):
            rho, s = float(math.exp(log_rho)), complex(re_s, im_s)
            cases.append(Case(kind, functools.partial(call, rho, s), _oracle_check(quantity, (rho, s, *extra))))
    draws.design.shuffle(cases)
    rho, s, order = F1_XI_DS
    cases.append(Case("xi_ds2", lambda: xi_core.xi_ds(rho, s, order),
                      _oracle_check("xi_ds", (rho, s, order)), fault="F1"))
    return cases


# ---------------------------------------------------------------------------------------
# grid1d: line-shared evaluation through the command line and the zero scan


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return call


def _csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def telescope_closed_form(rho, s):
    """Xi_rho(s) - Xi_rho(1 - s) = sqrt(pi/rho)/2 (e^{(s-1)^2/16rho} - e^{s^2/16rho})."""
    return cmath.sqrt(math.pi / rho) / 2 * (cmath.exp((s - 1) ** 2 / (16 * rho)) - cmath.exp(s * s / (16 * rho)))


def _grid_check(rho, n_re, n_im):
    """Mirrored columns against the telescope closed form, within the reported errors."""

    def check(out, oracle):
        code, text = out
        rows = _csv_rows(text)
        if code != 0 or len(rows) != n_re * n_im:
            return False, 0.0
        ok, worst = True, DIGITS_CAP
        for k in range((n_re + 1) // 2):
            for j in range(n_im):
                a, b = rows[k * n_im + j], rows[(n_re - 1 - k) * n_im + j]
                va, vb = complex(a["value_re"], a["value_im"]), complex(b["value_re"], b["value_im"])
                closed = telescope_closed_form(rho, complex(a["s_re"], a["s_im"]))
                # Xi(1 - s) = conj(Xi(1 - conj s)) for real rho; b holds 1 - conj s
                err = abs(va - vb.conjugate() - closed)
                rounding = 8 * EPS * (abs(va) + abs(vb) + abs(closed))
                ok &= err <= a["quad_error"] + b["quad_error"] + rounding
                worst = min(worst, digits(err, max(abs(va), abs(vb), abs(closed), 1e-2)))
        return ok, worst

    return check


def _zeros_check(rho, count):
    tol = 1e-9  # the telescope identity's catalog tolerance

    def check(out, oracle):
        code, text = out
        rows = _csv_rows(text)
        if code != 0 or len(rows) != count:
            return False, 0.0
        ok, worst = True, DIGITS_CAP
        for row in rows:
            # closed-form roots sit on the critical line at 16 pi rho k
            ok &= row["root_re"] == 0.5 and abs(row["root_im"] - 16 * math.pi * rho * row["k"]) <= 1e-12 * max(
                1.0, abs(row["root_im"]))
            ok &= row["confirm_residual"] <= tol
            worst = min(worst, digits(row["confirm_residual"], 1e-2))
        return ok, worst

    return check


def _scan_check(rho):
    """Every root must bracket a sign change of the oracle's critical sum."""

    def check(roots, oracle):
        if not roots:
            return False, 0.0
        ok, worst = True, DIGITS_CAP
        for root in roots:
            y = float(root.real)
            delta = 1e-6 * max(1.0, abs(y))
            lo = float(oracle.get("critical_sum", rho, y - delta).real)
            hi = float(oracle.get("critical_sum", rho, y + delta).real)
            ok &= lo * hi < 0
            # the oracle's root by linear interpolation across the bracket
            y_ref = y - delta + 2 * delta * lo / (lo - hi) if lo != hi else y
            worst = min(worst, digits(abs(y - y_ref), max(1.0, abs(y))))
        return ok, worst

    return check


# (Re s columns, Im s rows); nine grids make the table's 13 operations an odd number,
# so that the median call falls inside one cluster of similar calls, not in a gap
GRID_SHAPES = ((3, 21), (3, 41), (5, 41), (2, 81)) * 2 + ((3, 41),)
# log rho, the first Re s column, the lowest Im s row and the span of the rows; the
# cost of a row grows with Im s, so the rows span a narrow range of heights
GRID_RANGES = ((math.log(0.1), math.log(2.0)), (-1.0, 0.2), (0.0, 5.0), (25.0, 30.0))
ZEROS = (((0.05, 0.08), 30), ((0.08, 0.12), 20))
SCAN_RHO = ((0.2, 0.7), (0.7, 2.0))
SCAN_GRID = 41


def grid1d(seed: int) -> list:
    draws = Draws("grid1d", seed)
    cases = []
    for (n_re, n_im), (log_rho, re0, im0, span) in zip(GRID_SHAPES, draws.latin_hypercube(len(GRID_SHAPES), GRID_RANGES)):
        rho, re0, im0, im1 = float(math.exp(log_rho)), float(re0), float(im0), float(im0 + span)
        argv = ["--output-format", "csv", "grid", "--rho", repr(rho),
                f"--re={re0!r}:{1.0 - re0!r}:{n_re}", f"--im={im0!r}:{im1!r}:{n_im}"]
        cases.append(Case("grid", _cli_call(argv), _grid_check(rho, n_re, n_im)))
    for (lo, hi), count in ZEROS:
        rho = float(draws.jitter.uniform(lo, hi))
        argv = ["--output-format", "csv", "zeros", "--family", "telescope", "--rho", repr(rho), "--count", str(count)]
        cases.append(Case("zeros", _cli_call(argv), _zeros_check(rho, count)))
    for lo, hi in SCAN_RHO:
        rho = float(draws.jitter.uniform(lo, hi))
        # scan while the rescaling e^{y^2/64rho} stays below e^10, where double-precision
        # values of the sum still resolve its sign
        length = math.sqrt(640.0 * rho)
        cases.append(Case(
            "zero_scan",
            lambda rho=rho, length=length: funceq.zero_scan(
                funceq.critical_sum_rescaled(rho), 0.0, 1.0, length, SCAN_GRID),
            _scan_check(rho),
        ))
    draws.design.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------------------
# tensor_nd: d = 2, 3 tensor assembly and the identity catalog


def _identity_check(report, oracle):
    """The identity holds at its catalog tolerance.  Both sides come from the package,
    so the residual says how well they agree, not how many digits are correct."""
    return report.passed, None


TENSOR_SETS = 6
# sample_convergent_rho also returns nearly singular matrices; when Re rho has an
# eigenvalue below about 0.15 the d = 3 identities fail for some draws (see README.md),
# so the draws keep only matrices whose Re rho is at least this far from singular
MIN_EIGENVALUE = 0.3
# the cost of xi_d grows like prod(rho_ii)^(-1/2) (each axis window is ~ rho_ii^(-1/2)
# wide), so the matrix draws are stratified on that covariate, like the Latin
# hypercube draws; the bins are quantiles of a fixed reference sample of this size
STRATA_SAMPLE = 400
# each stratum's matrix is a fixed draw; the seed scales the entries of its real part
# by independent factors in 1 +- this
MATRIX_JITTER = 0.05
# (kind, d, variant, range of the diagonal entries); at d = 3 the cost goes like the
# product of the three window widths, so its range is narrower
DIAG_KINDS = (("xi_d2_theta", 2, "theta", (0.6, 1.5)), ("xi_d2_jensen", 2, "jensen", (0.6, 1.5)),
              ("xi_d3_theta", 3, "theta", (0.8, 1.3)))


def tensor_nd(seed: int) -> list:
    draws = Draws("tensor_nd", seed)
    n = TENSOR_SETS
    cases = []
    for kind, d, variant, diag_range in DIAG_KINDS:
        points = draws.latin_hypercube(n, [diag_range] * d + [(0.1, 0.9)] * d + [(-3.0, 3.0)] * d)
        for row in points:
            diag = [float(v) for v in row[:d]]
            s = [complex(a, b) for a, b in zip(row[d:2 * d], row[2 * d:])]
            params = xi_multi.MultiXiParams.make(np.diag(diag), s, variant)
            check = _oracle_check("xi_d_diagonal", (tuple(diag), tuple(s), variant), QuadSpec.for_dimension(d))
            cases.append(Case(kind, lambda p=params: xi_multi.xi_d(p), check))

    def far_from_singular(rho):
        return rho.convergence_ok() and np.linalg.eigvalsh(rho.array().real).min() >= MIN_EIGENVALUE

    def convergent(d, imag_scale, source):
        while True:
            rho = funceq.sample_convergent_rho(int(source.integers(2**31)), d, imag_scale=imag_scale)
            if far_from_singular(rho):
                yield rho

    def jittered(rho):
        """rho with the real part's entries scaled by seeded factors in 1 +- MATRIX_JITTER."""
        a = rho.array()
        while True:
            u = draws.jitter.uniform(-1.0, 1.0, a.shape)
            moved = RhoMatrix.from_array(a.real * (1.0 + MATRIX_JITTER * (u + u.T) / 2) + 1j * a.imag)
            if far_from_singular(moved):
                return moved

    def stratified_rho(d, imag_scale):
        """n matrices, one from each of n equally likely bins of the cost covariate."""
        covariate = lambda rho: float(np.prod(np.diag(rho.array().real))) ** -0.5
        reference = convergent(d, imag_scale, np.random.default_rng(d))
        edges = np.quantile([covariate(next(reference)) for _ in range(STRATA_SAMPLE)], np.linspace(0, 1, n + 1))
        edges[0], edges[-1] = -np.inf, np.inf
        out = [None] * n
        stream = convergent(d, imag_scale, draws.design)
        for j in draws.design.permutation(n):
            out[j] = jittered(next(r for r in stream if edges[j] <= covariate(r) < edges[j + 1]))
        return out

    s2 = draws.latin_hypercube(n, [(0.1, 0.9)] * 2 + [(-0.5, 0.5)] * 2)
    s3 = draws.latin_hypercube(n, [(0.1, 0.9)] * 3 + [(-0.3, 0.3)] * 3)
    s6 = draws.latin_hypercube(n, [(0.1, 0.8)] * 3)
    funcor = draws.latin_hypercube(n, [(0.8, 1.5), (0.05, 0.3)])
    rhos2, rhos3 = stratified_rho(2, 0.1), stratified_rho(3, 0.0)
    for j in range(n):
        rho2 = rhos2[j]
        s = [complex(s2[j, 0], s2[j, 2]), complex(s2[j, 1], s2[j, 3])]
        for kind in ("fun1", "fun11", "mean_value"):
            cases.append(Case(kind, lambda k=kind, r=rho2, s=s: funceq.verify(k, rho=r, s=s), _identity_check))
        rho3 = rhos3[j]
        s = [complex(a, b) for a, b in zip(s3[j, :3], s3[j, 3:])]
        ident = funceq.IdentityId("sk_flip", j % 3)
        cases.append(Case("sk_flip", lambda i=ident, r=rho3, s=s: funceq.verify(i, rho=r, s=s), _identity_check))
        cases.append(Case("result3d", lambda r=rho3, s=s: funceq.verify("result3d", rho=r, s=s), _identity_check))
        s = [float(v) for v in s6[j]]
        cases.append(Case("sixterm", lambda r=rho3, s=s: funceq.verify("sixterm", rho=r, s=s), _identity_check))
        gamma, r12 = (float(v) for v in funcor[j])
        mat = [[gamma, r12], [r12, gamma]]
        for family in ("funcor1", "funcor2"):
            root = funceq.candidate_zeros(family, mat, [0], branch=1 if j % 2 == 0 else -1)[0]
            cases.append(Case(family, lambda f=family, m=mat, z=root: funceq.verify(f, rho=m, s=z),
                              _identity_check))
    draws.design.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------------------
# segments: s-segment integrals from the anchor 1/2 (batched Mellin along the segment)


def transport_exponent(rho, alpha, s):
    """q(s) = (-s^2 + (4/alpha) s) / (16 rho) of W_alpha = e^q Xi_rho."""
    return (-(s * s) + (4.0 / alpha) * s) / (16 * rho)


def _relative_check(tol, direct):
    """residual <= tol * max(1, |direct value|), the direct value made outside the timing."""

    def check(residual, oracle):
        scale = max(1.0, abs(direct()))
        return residual <= tol * scale, digits(residual, scale)

    return check


def _a_pm_check(rho, s):
    """Rebuild e^q Xi from a+- and compare with the direct value at 1e-9 relative."""

    def check(out, oracle):
        ap, am = out
        arg = (0.5 - s) / (16 * rho)
        sinh_c = cmath.exp(1 / (32 * rho)) * cmath.sqrt(math.pi / rho) / 2
        cosh_c = cmath.exp(1 / (64 * rho)) * xi_core.xi(rho, 0.5).value
        rebuilt = (sinh_c - ap) * cmath.sinh(arg) + (cosh_c + am) * cmath.cosh(arg)
        direct = cmath.exp(transport_exponent(rho, 4.0, s)) * xi_core.xi(rho, s).value
        scale = max(1.0, abs(direct))
        err = abs(rebuilt - direct)
        return err <= 1e-9 * scale, digits(err, scale)

    return check


SEGMENT_SETS = 6
# Im s above about 20 reaches fault F2 for some rho, so seeded segments stop at 15 and
# F2 is represented by one fixed case instead
SEGMENT_RANGES = ((math.log(0.25), math.log(2.0)), (-0.7, 0.7), (0.0, 15.0))
# the iterated expansion's batched Mellin costs more than the other five together and
# grows steeply with Im s, so its draws keep to a narrow band of heights
ITERATED_RANGES = SEGMENT_RANGES[:2] + ((10.0, 15.0),)


def segments(seed: int) -> list:
    draws = Draws("segments", seed)
    n = SEGMENT_SETS
    od = ode_solutions
    cases = []

    def direct_w(rho, s, alpha=4.0):
        return lambda: cmath.exp(transport_exponent(rho, alpha, s)) * xi_core.xi(rho, s).value

    def anchored(ranges=SEGMENT_RANGES):
        for log_rho, re_off, im_s in draws.latin_hypercube(n, ranges):
            yield float(math.exp(log_rho)), complex(0.5 + re_off, im_s)

    for rho, s in anchored():
        cases.append(Case("canonical", lambda r=rho, s=s: od.canonical_residual(r, s),
                          _relative_check(1e-9, direct_w(rho, s))))
    for rho, s in anchored():
        tilde_w = lambda r=rho, s=s: cmath.exp(transport_exponent(r, 4.0, s)) * xi_core.xi_tilde(r, s).value
        cases.append(Case("tilde", lambda r=rho, s=s: od.tilde_residual(r, s), _relative_check(1e-8, tilde_w)))
    for rho, s in anchored():
        cases.append(Case("a_pm", lambda r=rho, s=s: od.a_pm(r, s), _a_pm_check(rho, s)))
    extra = draws.latin_hypercube(n, [(2.5, 5.0), (-0.5, 0.5), (0.3, 1.0), (-0.3, 0.3)])
    for (rho, s), (alpha, b1, gap, z_off) in zip(anchored(), extra):
        beta, z = (float(b1), float(b1 + gap)), 0.5 + float(z_off)
        cases.append(Case("vop", lambda r=rho, a=float(alpha), b=beta, z=z, s=s: od.vop_reconstruction_residual(
            r, a, b, z, s), _relative_check(1e-8, direct_w(rho, s, float(alpha)))))
    extra = draws.latin_hypercube(n, [(0.2, 1.8), (2.5, 5.0), (-0.3, 0.3)])
    for (rho, s), (phi, alpha, z_off) in zip(anchored(), extra):
        args = (rho, float(phi), float(alpha), s, 0.5 + float(z_off))
        cases.append(Case("chi", lambda a=args: od.chi_transform_residual(*a),
                          _relative_check(1e-7, lambda a=args: od.chi(*a))))
    for rho, s in anchored(ITERATED_RANGES):
        cases.append(Case("iterated2", lambda r=rho, s=s: od.iterated_expansion_residual(r, 2, s),
                          _relative_check(1e-7, direct_w(rho, s))))
    draws.design.shuffle(cases)
    rho, s = F2_CANONICAL
    cases.append(Case("canonical", lambda: od.canonical_residual(rho, s),
                      _relative_check(1e-9, direct_w(rho, s)), fault="F2"))
    return cases


BUILDERS = {"points1d": points1d, "grid1d": grid1d, "tensor_nd": tensor_nd, "segments": segments}
