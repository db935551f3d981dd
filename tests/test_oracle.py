"""The 1D log-axis quantities against the independent 30-digit mpmath oracle.

The oracle is the benchmark's (`perfbench/oracle.py`): it shares no code with the
package and folds the left half of the log axis onto the right through the Jacobi
inversion.  Every value must be within its own reported quad_error and within the
QuadSpec tolerance max(abs_tol, rel_tol |ref|).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from xideform import xi_core
from xideform.quadrature import QuadSpec
from xideform.theta import ThetaOperator

pytest.importorskip("mpmath")

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Oracle()


# (rho, s) spanning rho in [0.05, 2], Re s in [-1, 3], Im s in [0, 60]
POINTS = [
    (0.05, -1 + 60j), (0.05, 0.5 + 8j), (0.08, 3 + 40j), (0.12, -0.5 + 25j), (0.25, 0.5 + 20j),
    (0.3, 1.5 + 33j), (0.5, 2 + 3j), (0.7, -1 + 0j), (1.0, 0.3 + 0.7j), (1.4, 1 + 50j),
    (2.0, 3 + 60j), (2.0, -1 + 5j),
]
KINDS = {  # name: (package call, oracle call)
    "xi": (lambda r, s: xi_core.xi(r, s), lambda o, r, s: o.xi(r, s)),
    "xi_tilde": (lambda r, s: xi_core.xi_tilde(r, s), lambda o, r, s: o.xi_tilde(r, s)),
    "xi_ds1": (lambda r, s: xi_core.xi_ds(r, s, 1), lambda o, r, s: o.xi_ds(r, s, 1)),
    "xi_ds2": (lambda r, s: xi_core.xi_ds(r, s, 2), lambda o, r, s: o.xi_ds(r, s, 2)),
    "d_rho_xi": (lambda r, s: xi_core.d_rho_xi(r, s), lambda o, r, s: o.d_rho_xi(r, s)),
}
CASES = [(kind, rho, s) for kind in KINDS for rho, s in POINTS]
# small rho with Re s < 0: the log moments once ran out of refinement budget here
CASES.append(("xi_ds2", 0.0636, -0.7913 + 12.6839j))


@pytest.mark.filterwarnings("ignore::xideform.errors.PrecisionWarning")
@pytest.mark.parametrize("kind,rho,s", CASES)
def test_value_within_reported_error_and_tolerance(oracle, kind, rho, s):
    call, reference = KINDS[kind]
    spec = QuadSpec()
    val = call(rho, s)
    ref = complex(reference(oracle, rho, s))
    err = abs(val.value - ref)
    assert err <= val.quad_error
    assert err <= max(spec.abs_tol, spec.rel_tol * abs(ref))


def test_mellin_many_within_returned_bound(oracle):
    args = (0.8 + 1j * np.linspace(0.0, 30.0, 140)) / 2
    vals, bound = xi_core.mellin_many(ThetaOperator.plain(), 0.5, args)
    refs = np.array([complex(oracle.mellin("psi", 0, 0.5, a)) for a in args])
    assert np.abs(vals - refs).max() <= bound
    assert bound <= QuadSpec().abs_tol
