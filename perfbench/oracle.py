"""Independent 30-digit reference values for the benchmark's checks (mpmath only).

Every quantity the checks need is a log-axis Mellin integral

    I(K, m, rho, a) = int_R K(e^x) x^m e^{a x - rho x^2} dx,

with K one of Psi, H_4 Psi = (1 + 4 t d/dt) Psi or Delta_4 Psi = (16 D^2 + 8 D) Psi.
The oracle shares no code with the package.  It splits the axis at x = 0 and folds
the left half onto the right through the Jacobi inversion

    K(e^{-y}) = eps e^{y/2} K(e^y) + c1 e^{y/2} + c2,

so that only y >= 0 is integrated numerically, where the theta series converges in a
few terms and dies like e^{-pi e^y}.  The two inhomogeneous terms are half-line
Gaussian moments in closed form (erfc and a three-term recurrence).  The remaining
integral over [0, Y] is a panelled Gauss-Legendre sum; the kernel values at the
nodes depend on K only, so they are computed once per process.

Run `python3 perfbench/oracle.py` to check the oracle against closed forms; the
cached table of a seed is remade by `python3 perfbench/run.py --remake-oracle --seed N`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
from mpmath import mp

DPS = 34          # working precision; tables keep 30 significant digits
Y_MAX = 4.5       # K(e^y) < e^{-280} beyond this point
PANELS = 6
DEGREE = 5        # mpmath Gauss-Legendre degree: 48 nodes per panel

# (eps, c1, c2) of the inversion K(e^{-y}) = eps e^{y/2} K(e^y) + c1 e^{y/2} + c2
_REFLECTION = {
    "psi": (1, mpmath.mpf(1) / 2, -mpmath.mpf(1) / 2),
    "h4": (-1, -mpmath.mpf(1) / 2, -mpmath.mpf(1) / 2),
    "delta4": (1, 0, 0),
}

TABLE_DIR = Path(__file__).resolve().parent


def kernel_series(kernel: str, t):
    """K(t) by direct summation of the theta series (each term p(u) e^{-u}, u = pi n^2 t)."""
    t = mpmath.mpf(t)
    total = mpmath.mpf(0)
    n = 1
    while True:
        u = mp.pi * n * n * t
        if kernel == "psi":
            term = mpmath.exp(-u)
        elif kernel == "h4":
            term = (1 - 4 * u) * mpmath.exp(-u)
        elif kernel == "delta4":
            term = (16 * u * u - 24 * u) * mpmath.exp(-u)
        else:
            raise ValueError(f"unknown kernel {kernel!r}")
        total += term
        if u > 20 and abs(term) < mpmath.mpf(10) ** (-(mp.dps + 12)):
            return total
        n += 1


def half_line_moments(b, rho, m: int):
    """G_k = int_{-inf}^0 x^k e^{b x - rho x^2} dx for k = 0..m."""
    b, rho = mpmath.mpc(b), mpmath.mpf(rho)
    g0 = mpmath.sqrt(mp.pi / rho) / 2 * mpmath.exp(b * b / (4 * rho)) * mpmath.erfc(b / (2 * mpmath.sqrt(rho)))
    out = [g0]
    # integrate x^k (b - 2 rho x) e^{...} by parts: b G_k - 2 rho G_{k+1} = [k == 0] - k G_{k-1}
    for k in range(m):
        prev = out[k - 1] if k >= 1 else 0
        out.append((b * out[k] + k * prev - (1 if k == 0 else 0)) / (2 * rho))
    return out


class Oracle:
    """Reference values with a per-process cache of kernel values at the nodes."""

    def __init__(self):
        mp.dps = DPS
        self._nodes = {}
        self._kernel_at_nodes = {}

    def _rule(self, degree):
        if degree not in self._nodes:
            gl = mpmath.calculus.quadrature.GaussLegendre(mp)
            base = gl.calc_nodes(degree, mp.prec)
            width = mpmath.mpf(Y_MAX) / PANELS
            nodes = []
            for p in range(PANELS):
                lo = p * width
                nodes.extend((lo + (x + 1) * width / 2, w * width / 2) for x, w in base)
            self._nodes[degree] = nodes
        return self._nodes[degree]

    def _kernel_values(self, kernel, degree):
        key = (kernel, degree)
        if key not in self._kernel_at_nodes:
            self._kernel_at_nodes[key] = [
                (y, w * kernel_series(kernel, mpmath.exp(y)), mpmath.exp(y / 2)) for y, w in self._rule(degree)
            ]
        return self._kernel_at_nodes[key]

    def folded(self, kernel: str, m: int, rho, a, degree: int = DEGREE):
        """int_0^Y K(e^y) y^m e^{-rho y^2} (e^{a y} + eps (-1)^m e^{(1/2 - a) y}) dy."""
        sign = _REFLECTION[kernel][0] * (-1) ** m
        acc = mpmath.mpc(0)
        for y, wk, half in self._kernel_values(kernel, degree):
            e = mpmath.exp(a * y)
            acc += wk * y**m * mpmath.exp(-rho * y * y) * (e + sign * half / e)
        return acc

    def mellin(self, kernel: str, m: int, rho, a):
        """I(K, m, rho, a) as an mpmath number."""
        _, c1, c2 = _REFLECTION[kernel]
        rho, a = mpmath.mpf(rho), mpmath.mpc(a)
        total = self.folded(kernel, m, rho, a)
        if c1:
            total += c1 * half_line_moments(a - mpmath.mpf(1) / 2, rho, m)[m]
        if c2:
            total += c2 * half_line_moments(a, rho, m)[m]
        return total

    # -- the quantities the checks use -----------------------------------------------------

    def xi(self, rho, s):
        return self.mellin("psi", 0, rho, mpmath.mpc(s) / 2)

    def xi_tilde(self, rho, s):
        return self.mellin("h4", 0, rho, mpmath.mpc(s) / 2)

    def xi_ds(self, rho, s, order):
        return self.mellin("psi", order, rho, mpmath.mpc(s) / 2) / 2**order

    def d_rho_xi(self, rho, s):
        return -self.mellin("psi", 2, rho, mpmath.mpc(s) / 2)

    def xi_d_diagonal(self, diag, s, variant):
        kernel = "psi" if variant == "theta" else "delta4"
        out = mpmath.mpc(1)
        for r, si in zip(diag, s):
            out *= self.mellin(kernel, 0, r, mpmath.mpc(si) / 2)
        return out

    def critical_sum(self, rho, y):
        """[Xi((1+iy)/2) + Xi((1-iy)/2)] e^{y^2/64 rho} for real rho and y."""
        rho, y = mpmath.mpf(rho), mpmath.mpf(y)
        val = 2 * mpmath.re(self.xi(rho, mpmath.mpc(0.5, y / 2)))
        return val * mpmath.exp(y * y / (64 * rho))


class Table:
    """Cached reference values keyed by the exact double inputs; misses are computed."""

    def __init__(self, oracle: Oracle, path: Path | None = None):
        self.oracle = oracle
        self.values = {}
        if path is not None and path.exists():
            self.values = json.loads(path.read_text())
        self.misses = 0

    @staticmethod
    def key(name, *args):
        return name + "|" + "|".join(repr(complex(a)) if isinstance(a, complex) else repr(a) for a in args)

    def get(self, name, *args):
        k = self.key(name, *args)
        if k not in self.values:
            self.misses += 1
            val = getattr(self.oracle, name)(*args)
            self.values[k] = [mpmath.nstr(mpmath.re(val), 30), mpmath.nstr(mpmath.im(val), 30)]
        re, im = self.values[k]
        return mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))

    def save(self, path: Path):
        path.write_text(json.dumps(self.values, indent=0, sort_keys=True) + "\n")


def table_path(seed: int) -> Path:
    return TABLE_DIR / f"oracle_seed{seed}.json"


def self_test(oracle: Oracle) -> list:
    """Closed-form checks of every oracle ingredient; returns (name, error, bound) rows."""
    rows = []
    tiny = mpmath.mpf(10) ** -28
    # Gaussian Mellin: int_R x^m e^{a x - rho x^2} dx from the two half-line moments
    for rho, a in ((0.05, 0.3 + 29j), (0.7, -0.4 + 3j), (2.0, 1.5 + 11j)):
        rho_m, a_m = mpmath.mpf(rho), mpmath.mpc(a)
        full = mpmath.sqrt(mp.pi / rho_m) * mpmath.exp(a_m * a_m / (4 * rho_m))
        exact = [full, a_m / (2 * rho_m) * full, (1 / (2 * rho_m) + a_m * a_m / (4 * rho_m**2)) * full]
        left, right = half_line_moments(a_m, rho, 2), half_line_moments(-a_m, rho, 2)
        for m in range(3):
            err = abs(left[m] + (-1) ** m * right[m] - exact[m])
            rows.append((f"gauss_mellin m={m} rho={rho} a={a}", err, tiny * max(1, abs(exact[m]))))
    # Jacobi inversion of each kernel, both sides by direct summation
    for kernel, (eps, c1, c2) in _REFLECTION.items():
        for t in (mpmath.mpf("0.37"), mpmath.mpf("0.81")):
            r = 1 / mpmath.sqrt(t)
            err = abs(kernel_series(kernel, t) - (eps * r * kernel_series(kernel, 1 / t) + c1 * r + c2))
            rows.append((f"inversion {kernel} t={t}", err, tiny))
    # telescope identity of the assembled Xi oracle
    for rho, s in ((0.05, -0.8 + 40j), (0.3, 2.2 + 7j), (1.7, 0.1 + 55j)):
        s_m = mpmath.mpc(s)
        lhs = oracle.xi(rho, s_m) - oracle.xi(rho, 1 - s_m)
        rhs = mpmath.sqrt(mp.pi / rho) / 2 * (mpmath.exp((s_m - 1) ** 2 / (16 * rho)) - mpmath.exp(s_m**2 / (16 * rho)))
        rows.append((f"telescope rho={rho} s={s}", abs(lhs - rhs), tiny * max(1, abs(rhs))))
    # the folded Gauss-Legendre sum against the same sum with twice the nodes
    rho, a = mpmath.mpf("0.05"), mpmath.mpc(1.5, 30)
    for kernel in _REFLECTION:
        for m in (0, 2):
            err = abs(oracle.folded(kernel, m, rho, a) - oracle.folded(kernel, m, rho, a, DEGREE + 1))
            rows.append((f"node doubling {kernel} m={m}", err, tiny))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check the mpmath oracle against closed forms")
    parser.parse_args(argv)
    bad = 0
    for name, err, bound in self_test(Oracle()):
        ok = err <= bound
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {mpmath.nstr(err, 3)} (bound {mpmath.nstr(bound, 3)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
