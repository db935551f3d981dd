"""Command-line interface: evaluate family members, verify identities, emit tables.

Complex numbers on the command line use `a+bi` with an optional pi literal, so root
locations can be typed as they are naturally written: `0.5+8πi` (or `0.5+8pii`).
Exit codes: 0 success / verification pass, 1 verification fail, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .errors import DomainError, NonConvergenceError
from .funceq import IDENTITIES, IdentityId, candidate_zeros, sample_convergent_rho, verify
from .gaussmat import RhoMatrix
from .ode_solutions import a_pm, canonical_decomposition
from .quadrature import QuadSpec
from .theta import ThetaOperator
from .xi_core import mellin_many, xi, xi_sum_m, xi_tilde
from .xi_multi import MultiXiParams, xi_d

_NUM = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_TERM = rf"(?:{_NUM})?(?:π|pi)?"
# a command-line value that begins like a negative number: '-0.5:1:3', '-1+2i', '-πi'
_NEGATIVE = re.compile(r"-(?:[0-9.]|π|pi|i)")


def _term_value(text: str) -> float:
    """Numeric value of one term like '8π', 'π', '0.5', '' (empty means 1)."""
    if not text:
        return 1.0
    scale = 1.0
    if text.endswith(("π", "pi")):
        scale = math.pi
        text = text[:-1] if text.endswith("π") else text[:-2]
    return scale * (float(text) if text else 1.0)


def parse_complex(text: str) -> complex:
    """Parse `a+bi` with optional π literals: '1+3i', '0.5+8πi', '-πi', '2π', 'i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")

    def signed(sign: str, body: str) -> float:
        return (-1.0 if sign == "-" else 1.0) * _term_value(body)

    m = re.fullmatch(rf"(?P<rs>[+-]?)(?P<re>{_TERM})(?P<is>[+-])(?P<im>{_TERM})i", s)
    if m and m.group("re"):
        return complex(signed(m.group("rs"), m.group("re")), signed(m.group("is"), m.group("im")))
    m = re.fullmatch(rf"(?P<is>[+-]?)(?P<im>{_TERM})i", s)
    if m:
        return complex(0.0, signed(m.group("is"), m.group("im")))
    m = re.fullmatch(rf"(?P<rs>[+-]?)(?P<re>{_TERM})", s)
    if m and m.group("re"):
        return complex(signed(m.group("rs"), m.group("re")), 0.0)
    raise ValueError(f"cannot parse complex number {text!r}")


def parse_complex_vector(text: str) -> list:
    return [parse_complex(part) for part in text.split(",") if part.strip()]


def parse_rho_matrix(text: str) -> RhoMatrix:
    rows = [[parse_complex(v) for v in row.split(",")] for row in text.split(";")]
    return RhoMatrix.from_array(np.array(rows, dtype=complex))


def parse_range(text: str):
    """'start:stop:count' -> linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    return np.linspace(start, stop, count)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(args, payload_rows, header=None):
    """payload_rows: list of dicts (json) rendered as CSV through the header order."""
    if args.output_format == "json":
        text = "\n".join(json.dumps(row) for row in payload_rows) + "\n"
    else:
        lines = [",".join(header)]
        for row in payload_rows:
            lines.append(",".join(_fmt(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args) -> QuadSpec:
    tol = args.tol
    env = os.environ.get("XI_QUAD_TOL")
    abs_tol = float(env) if env else 1e-12
    if tol is not None:
        abs_tol = min(abs_tol, tol)
    return QuadSpec(abs_tol=max(abs_tol, 1e-15), rel_tol=max(abs_tol * 100, 1e-13))


def cmd_eval(args) -> int:
    spec = _spec_from_args(args)
    family = args.family
    if family in ("xi", "xi_tilde", "xi_m"):
        if args.rho is None:
            raise DomainError(f"--rho is required for family {family}")
        rho = parse_complex(args.rho)
        if rho.real <= 0:
            raise DomainError("Re(rho) must be positive")
        s = parse_complex(args.s)
        if family == "xi":
            val = xi(rho, s, spec)
        elif family == "xi_tilde":
            val = xi_tilde(rho, s, spec)
        else:
            val = xi_sum_m(rho, s, args.m, spec)
    else:
        if args.rho_matrix is None:
            raise DomainError(f"--rho-matrix is required for family {family}")
        rho = parse_rho_matrix(args.rho_matrix)
        s = parse_complex_vector(args.s)
        variant = "theta" if family == "xi_d" else "jensen"
        val = xi_d(MultiXiParams.make(rho, s, variant), spec)
    row = {
        "family": family,
        "value_re": val.value.real,
        "value_im": val.value.imag,
        "quad_error": float(val.quad_error),
    }
    _emit(args, [row], header=["family", "value_re", "value_im", "quad_error"])
    return 0


def _required(args, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise DomainError(f"verify {args.id} needs --{name.replace('_', '-')}")
    return value


# the verify option each named extra is read from (an s2 from --s)
_EXTRA_OPTION = {"rho": "rho", "s": "s", "s2": "s", "gamma": "gamma", "n": "n", "branch": "branch",
                 "nprime": "nprime"}
# identities whose every input has a verify option; the others need an extra that only
# the library takes, such as alpha
_VERIFY_IDS = tuple(kind for kind, entry in IDENTITIES.items() if set(entry.extras) <= set(_EXTRA_OPTION))


def _verify_inputs(args, entry):
    """(rho, s, extras) for verify, read from the options the entry's input shape needs."""
    if entry.inputs == "extras":
        values = {name: _required(args, _EXTRA_OPTION[name]) for name in entry.extras}
        return None, None, {name: parse_complex(v) if isinstance(v, str) else v for name, v in values.items()}
    if entry.inputs == "scalar":
        return parse_complex(_required(args, "rho")), parse_complex(_required(args, "s")), {}
    if entry.inputs == "matrix" and entry.d and args.seed is not None:
        rng = np.random.default_rng(args.seed)
        return sample_convergent_rho(args.seed, entry.d, imag_scale=0.0), rng.uniform(0.1, 0.9, size=entry.d), {}
    rho = parse_rho_matrix(_required(args, "rho_matrix"))
    s = _required(args, "s")
    return rho, parse_complex(s) if entry.inputs == "equal_diagonal" else parse_complex_vector(s), {}


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    entry = IDENTITIES[args.id]
    rho, s, extras = _verify_inputs(args, entry)
    ident = IdentityId(args.id, getattr(args, entry.index) if entry.index else None)
    report = verify(ident, rho=rho, s=s, extras=extras, tol=args.tol, spec=spec)
    if args.output_format == "json":
        _emit(args, [report.to_dict()])
    else:
        _emit(
            args,
            [{"id": report.id, "abs_residual": report.abs_residual, "rel_residual": report.rel_residual,
              "pass": str(report.passed).lower(), "tolerance": report.tolerance}],
            header=["id", "abs_residual", "rel_residual", "pass", "tolerance"],
        )
    return 0 if report.passed else 1


def cmd_zeros(args) -> int:
    """Every confirmation in one batched transform: Xi at each root, at its mirror
    1-m-root and at their shifts +l, l = 0..m."""
    spec = _spec_from_args(args)
    rho = parse_complex(args.rho)
    m = args.m
    if m < 0:
        raise DomainError("m must be >= 0")
    ks = range(-(args.count // 2), args.count - args.count // 2)
    roots = np.array(candidate_zeros(args.family, rho, ks, m=m), dtype=complex)
    diffs = np.zeros(roots.shape)
    if roots.size:
        shifts = np.arange(m + 1)
        points = np.stack([roots, 1 - m - roots])[:, None, :] + shifts[None, :, None]
        if args.family == "tilde":
            # Xi~^m(s) + (-1)^m Xi~^m(1-m-s), Xi~^m alternating, vanishes on the tilde family
            op, signs, mirror_sign = ThetaOperator.h(4.0), (-1.0) ** shifts, (-1.0) ** m
        else:
            op, signs, mirror_sign = ThetaOperator.plain(), np.ones(m + 1), -1.0
        values, _ = mellin_many(op, rho, points.reshape(-1) / 2, 0, spec)
        at_root, at_mirror = signs @ values.reshape(points.shape)
        diffs = np.abs(at_root + mirror_sign * at_mirror)
    rows = [{"k": k, "root_re": root.real, "root_im": root.imag, "confirm_residual": float(diff)}
            for k, root, diff in zip(ks, roots, diffs)]
    _emit(args, rows, header=["k", "root_re", "root_im", "confirm_residual"])
    return 0


def cmd_decompose(args) -> int:
    spec = _spec_from_args(args)
    rho = parse_complex(args.rho)
    s = parse_complex(args.s)
    dec = canonical_decomposition(rho, s, spec)
    ap, am = a_pm(rho, s, spec)
    row = {
        "sinh_coeff_re": dec.sinh_coeff.real, "sinh_coeff_im": dec.sinh_coeff.imag,
        "cosh_coeff_re": dec.cosh_coeff.real, "cosh_coeff_im": dec.cosh_coeff.imag,
        "integral_re": dec.integral_part.real, "integral_im": dec.integral_part.imag,
        "total_re": dec.total.real, "total_im": dec.total.imag,
        "a_plus_re": ap.real, "a_plus_im": ap.imag,
        "a_minus_re": am.real, "a_minus_im": am.imag,
    }
    _emit(args, [row], header=list(row.keys()))
    return 0


def cmd_grid(args) -> int:
    """One batched transform per Re s row; a row's quad_error is that row's bound."""
    spec = _spec_from_args(args)
    rho = parse_complex(args.rho)
    ims = parse_range(args.im)
    rows = []
    for re_part in parse_range(args.re):
        values, quad_error = mellin_many(ThetaOperator.plain(), rho, (re_part + 1j * ims) / 2, 0, spec)
        rows.extend({
            "s_re": float(re_part), "s_im": float(im_part),
            "value_re": val.real, "value_im": val.imag,
            "quad_error": quad_error,
        } for im_part, val in zip(ims, values))
    _emit(args, rows, header=["s_re", "s_im", "value_re", "value_im", "quad_error"])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: argparse parsers can be reused."""
    parser = argparse.ArgumentParser(
        prog="xideform",
        description="Gaussian-deformed Riemann Xi family: evaluation and identity verification",
    )
    parser.add_argument("--output-format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a family member")
    p_eval.add_argument("--family", choices=("xi", "xi_tilde", "xi_m", "xi_d", "jensen"), required=True)
    p_eval.add_argument("--rho", help="scalar deformation, e.g. 0.5")
    p_eval.add_argument("--rho-matrix", dest="rho_matrix", help="rows ; separated: '1,0.2;0.2,1'")
    p_eval.add_argument("--s", required=True, help="argument(s), e.g. '0.5+8πi' or '1,2'")
    p_eval.add_argument("--m", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify a functional identity")
    p_verify.add_argument("id", choices=_VERIFY_IDS)
    p_verify.add_argument("--rho")
    p_verify.add_argument("--rho-matrix", dest="rho_matrix")
    p_verify.add_argument("--s")
    p_verify.add_argument("--m", type=int, default=0)
    p_verify.add_argument("--k", type=int, default=0)
    p_verify.add_argument("--n", type=int, default=1)
    p_verify.add_argument("--nprime", type=int, default=0)
    p_verify.add_argument("--branch", type=int, default=1)
    p_verify.add_argument("--gamma", default="1")
    p_verify.add_argument("--seed", type=int, default=None, help="random rho and s, for identities of fixed dimension")
    p_verify.set_defaults(func=cmd_verify)

    p_zeros = sub.add_parser("zeros", help="closed-form candidate zeros with confirmation residuals")
    p_zeros.add_argument("--rho", required=True)
    p_zeros.add_argument("--count", type=int, default=5)
    p_zeros.add_argument("--family", choices=("telescope", "tilde"), default="telescope")
    p_zeros.add_argument("--m", type=int, default=0)
    p_zeros.set_defaults(func=cmd_zeros)

    p_dec = sub.add_parser("decompose", help="canonical sinh/cosh/integral split and a± values")
    p_dec.add_argument("--rho", required=True)
    p_dec.add_argument("--s", required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_grid = sub.add_parser("grid", help="Xi values over a rectangle, CSV/JSON rows")
    p_grid.add_argument("--rho", required=True)
    p_grid.add_argument("--re", required=True, help="start:stop:count")
    p_grid.add_argument("--im", required=True, help="start:stop:count")
    p_grid.set_defaults(func=cmd_grid)
    return parser


def _join_negative_values(argv):
    """'--re -0.5:1.5:3' -> '--re=-0.5:1.5:3': argparse reads a value that starts with
    a minus sign and is not a plain number (a range, a complex literal) as an option."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (DomainError, NonConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
