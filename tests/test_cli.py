import json
import math

import numpy as np
import pytest

from xideform.cli import build_parser, main, parse_complex, parse_range, parse_rho_matrix
from xideform.funceq import IDENTITIES, verify
from xideform.quadrature import QuadSpec

from test_funceq import REGISTRY_CASES


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+3i", 1 + 3j),
        ("1-3i", 1 - 3j),
        ("0.5+8πi", 0.5 + 8 * math.pi * 1j),
        ("0.5+8pii", 0.5 + 8 * math.pi * 1j),
        ("8πi", 8 * math.pi * 1j),
        ("-πi", -math.pi * 1j),
        ("i", 1j),
        ("-i", -1j),
        ("2π", 2 * math.pi),
        ("1e-3+2e2i", 1e-3 + 200j),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == pytest.approx(expected)


def test_parse_complex_rejects_garbage():
    for bad in ("", "foo", "1+2", "++1"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_parse_rho_matrix():
    m = parse_rho_matrix("1,0.2;0.2,1")
    assert m.d == 2
    assert m.entries[0][1] == 0.2 + 0j


def test_parse_range():
    vals = parse_range("0:1:5")
    assert np.allclose(vals, [0, 0.25, 0.5, 0.75, 1.0])


def test_eval_xi(capsys):
    code, out, _ = run_cli(["eval", "--family", "xi", "--rho", "0.5", "--s", "0.5+8πi"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert math.isfinite(rec["value_re"]) and math.isfinite(rec["value_im"])
    assert rec["quad_error"] < 1e-9


def test_eval_domain_error_exit_2(capsys):
    code, _, err = run_cli(["eval", "--family", "xi", "--rho", "-1", "--s", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run_cli(["eval", "--family", "xi", "--rho", "0.5", "--s", "not-a-number"], capsys)
    assert code == 2
    assert "error" in err


def test_eval_xi_d_matrix(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "xi_d", "--rho-matrix", "1,0.2;0.2,1", "--s", "1,2"], capsys
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert math.isfinite(rec["value_re"])


def test_eval_xi_m_and_jensen(capsys):
    code, out, _ = run_cli(["eval", "--family", "xi_m", "--rho", "0.5", "--s", "1.0", "--m", "2"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    from xideform.xi_core import xi_sum_m

    assert rec["value_re"] == pytest.approx(xi_sum_m(0.5, 1.0, 2).value.real, rel=1e-10)
    code, out, _ = run_cli(
        ["eval", "--family", "jensen", "--rho-matrix", "1,0.2;0.2,1", "--s", "0.7,1.1"], capsys
    )
    assert code == 0
    assert math.isfinite(json.loads(out.strip())["value_re"])


def test_verify_telescope_pass(capsys):
    code, out, _ = run_cli(["verify", "telescope", "--m", "0", "--rho", "0.5", "--s", "2+3i"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["pass"] is True


def test_verify_unattainable_tolerance_fails(capsys):
    code, out, _ = run_cli(
        ["--tol", "1e-30", "verify", "telescope", "--m", "0", "--rho", "0.5", "--s", "2+3i"], capsys
    )
    assert code == 1
    assert json.loads(out.strip())["pass"] is False


def test_verify_result3d_seeded(capsys):
    code, out, _ = run_cli(["verify", "result3d", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out.strip())["pass"] is True


def test_zeros_spacing(capsys):
    code, out, _ = run_cli(
        ["--output-format", "csv", "zeros", "--rho", "0.5", "--count", "3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,root_re,root_im,confirm_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    ims = [float(r[2]) for r in rows]
    gaps = np.diff(ims)
    assert np.allclose(gaps, 8 * math.pi, rtol=0, atol=1e-12)
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_decompose_at_half(capsys):
    code, out, _ = run_cli(["decompose", "--rho", "1", "--s", "0.5"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["integral_re"] == 0.0 and rec["integral_im"] == 0.0
    assert rec["a_plus_re"] == 0.0


def test_grid_row_count(capsys):
    code, out, _ = run_cli(
        ["--output-format", "csv", "grid", "--rho", "1", "--re", "0:1:5", "--im", "0:30:61"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 305


def test_json_round_trip_bit_exact(capsys):
    code, out, _ = run_cli(["eval", "--family", "xi", "--rho", "0.7", "--s", "1.3"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    from xideform.xi_core import xi
    from xideform.quadrature import QuadSpec

    again = xi(0.7, 1.3, QuadSpec(abs_tol=1e-12, rel_tol=1e-10))
    assert rec["value_re"] == again.value.real
    assert rec["value_im"] == again.value.imag


def test_csv_output_full_precision(tmp_path, capsys):
    out_path = tmp_path / "val.csv"
    code, _, _ = run_cli(
        ["--output-format", "csv", "--output", str(out_path),
         "eval", "--family", "xi", "--rho", "0.7", "--s", "1.3"], capsys
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    values = lines[1].split(",")
    rec = dict(zip(header, values))
    from xideform.xi_core import xi
    from xideform.quadrature import QuadSpec

    again = xi(0.7, 1.3, QuadSpec(abs_tol=1e-12, rel_tol=1e-10))
    assert float(rec["value_re"]) == again.value.real


def test_verify_rho12_roots_cli(capsys):
    code, out, _ = run_cli(
        ["verify", "rho12_roots", "--gamma", "1", "--n", "1", "--branch", "1", "--s", "0.3"], capsys
    )
    assert code == 0
    assert json.loads(out.strip())["pass"] is True


def test_verify_matrix_identity_without_inputs_exit_2(capsys):
    code, out, err = run_cli(["verify", "result3d"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--rho-matrix" in err


def test_zeros_tilde_family_confirmed_by_tilde_identity(capsys):
    code, out, _ = run_cli(
        ["--output-format", "csv", "zeros", "--rho", "0.5", "--count", "3", "--family", "tilde"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3
    assert all(float(r[3]) <= 1e-9 for r in rows)


def test_grid_range_with_leading_minus(capsys):
    code, out, err = run_cli(
        ["--output-format", "csv", "grid", "--rho", "1", "--re", "-0.5:1.5:3", "--im", "0:1:2"], capsys
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [-0.5, -0.5, 0.5, 0.5, 1.5, 1.5]


@pytest.mark.parametrize("argv", [
    ["verify", "sk_flip", "--k", "5", "--rho-matrix", "1,0.2;0.2,1", "--s", "0.5,0.5"],
    ["verify", "fun1", "--rho-matrix", "1,0.2;0.2,1", "--s", "0.5"],
])
def test_verify_wrong_shape_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_choices_are_the_registry_ids_with_options(capsys):
    parser = build_parser()
    accepted = set()
    for kind in IDENTITIES:
        try:
            parser.parse_args(["verify", kind])
            accepted.add(kind)
        except SystemExit:
            assert "invalid choice" in capsys.readouterr().err
    # rewrite_2d, mobius_rewrite and the transport laws need an alpha, beta, z, phi or t, which
    # have no option
    assert accepted == {
        "telescope", "sk_flip", "fun1", "fun11", "funcor1", "funcor2", "mean_value", "result3d",
        "sixterm", "rho12_roots", "rewrite_3d_a", "rewrite_3d_b",
        "delta4_identity", "heat", "tilde_moment", "canonical", "tilde", "iterated_expansion", "jensen_flip",
    }


def _literal(z) -> str:
    """A complex number as the command line reads it back bit for bit."""
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


@pytest.mark.parametrize("kind", ["delta4_identity", "heat", "tilde_moment", "canonical", "tilde",
                                  "iterated_expansion", "jensen_flip"])
def test_verify_reaches_the_scalar_and_jensen_ids(kind, capsys):
    case = REGISTRY_CASES[kind]
    argv = ["verify", kind] + [f"--{name}={value}" for name, value in case.get("extras", {}).items()]
    if np.ndim(case["rho"]):
        argv += ["--rho-matrix", ";".join(",".join(map(_literal, row)) for row in case["rho"])]
    else:
        argv += ["--rho", _literal(case["rho"])]
    code, out, _ = run_cli(argv + ["--s", ",".join(map(_literal, np.atleast_1d(case["s"])))], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    library = verify(kind, **case, spec=QuadSpec(abs_tol=1e-12, rel_tol=1e-10))
    assert rec["abs_residual"] == library.abs_residual
    assert rec["params"] == library.params
    assert rec["id"] == library.id


def test_verify_rewrite_3d_a_from_rho_gamma_s(capsys):
    code, out, _ = run_cli(["verify", "rewrite_3d_a", "--rho", "0.5", "--gamma", "0.3", "--s", "0"], capsys)
    assert code == 0
    assert json.loads(out.strip())["params"] == {"rho": [0.5, 0.0], "gamma": [0.3, 0.0], "s": [0.0, 0.0]}


def _complex(value):
    """Decode a report's [re, im] pairs, nested in lists for vectors and matrices."""
    return complex(*value) if isinstance(value[0], float) else [_complex(v) for v in value]


def test_verify_seeded_params_rebuild_the_report(capsys):
    code, out, _ = run_cli(["verify", "fun1", "--seed", "3"], capsys)
    assert code == 0
    rec = json.loads(out.strip())
    params = rec["params"]
    again = verify(rec["id"], rho=_complex(params["rho"]), s=_complex(params["s"]),
                   spec=QuadSpec(abs_tol=1e-12, rel_tol=1e-10))
    assert again.to_dict() == rec


@pytest.mark.parametrize("rho", ["0.05", "1"])
def test_grid_rows_match_scalar_xi(rho, capsys):
    from xideform.xi_core import xi

    code, out, _ = run_cli(["--output-format", "csv", "grid", "--rho", rho, "--re=-1:1:5", "--im", "0:40:21"], capsys)
    assert code == 0
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10)
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5 * 21
    for s_re, s_im, value_re, value_im, _ in rows:
        expected = xi(float(rho), complex(s_re, s_im), spec).value
        assert abs(complex(value_re, value_im) - expected) <= max(spec.abs_tol, spec.rel_tol * abs(expected))


@pytest.mark.parametrize("family", ["telescope", "tilde"])
@pytest.mark.parametrize("m", [1, 2])
def test_zeros_confirmed_at_higher_m(family, m, capsys):
    code, out, _ = run_cli(
        ["--output-format", "csv", "zeros", "--rho", "0.1", "--count", "9", "--family", family, "--m", str(m)], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 9
    assert all(float(r[3]) <= 1e-9 for r in rows)


def test_grid_keeps_the_cancellation_warning(capsys):
    from xideform.errors import PrecisionWarning

    with pytest.warns(PrecisionWarning):
        code, _, _ = run_cli(["--tol", "1e-15", "grid", "--rho", "0.05", "--re=-1:-1:1", "--im", "30:30:1"], capsys)
    assert code == 0


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(["eval", "--family", "xi", "--rho", "0.7", "--s", "1.3"], capsys)
    assert code == 0 and json.loads(out.strip())["family"] == "xi"
    code, out, _ = run_cli(["--output-format", "csv", "zeros", "--rho", "0.5", "--count", "2"], capsys)
    assert code == 0 and out.splitlines()[0] == "k,root_re,root_im,confirm_residual"


@pytest.mark.parametrize("family", ["telescope", "tilde"])
def test_zeros_count_zero_prints_only_the_header(family, capsys):
    code, out, _ = run_cli(["--output-format", "csv", "zeros", "--rho", "0.5", "--count", "0", "--family", family],
                           capsys)
    assert code == 0
    assert out == "k,root_re,root_im,confirm_residual\n"


def test_zeros_negative_m_is_a_usage_error(capsys):
    code, out, err = run_cli(["zeros", "--rho", "0.5", "--m=-1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
