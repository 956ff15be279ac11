import hashlib
import importlib
import json
import sys

import pytest

from adorep import catalog
from adorep.cli import main
from adorep.embed import ExpansionError, LiftingError
from adorep.jsonio import (
    JsonFormatError,
    frac_from_json,
    frac_to_str,
    lattice_from_json,
    lattice_to_json,
    rep_from_json,
    rep_to_json,
)
from adorep.exact_linalg import ExactMatrix
from adorep.lie_core import LeibnizError, direct_sum, lie_lattice
from adorep.nilrep import nilpotent_faithful_rep
from adorep.pipeline import ado_representation

from oracles import dense_lattice_json, tensor_lattice


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_lattice(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(lattice_to_json(catalog.get(name).lattice)))
    return str(path)


def test_fraction_round_trip():
    for s in ("0", "5", "-5", "5/3", "-7/2"):
        assert frac_to_str(frac_from_json(s)) == s
    with pytest.raises(JsonFormatError):
        frac_from_json("1/0")
    with pytest.raises(JsonFormatError):
        frac_from_json(1.5)


def test_lattice_json_round_trip():
    for name in catalog.names():
        L = catalog.get(name).lattice
        assert lattice_from_json(lattice_to_json(L)) == L
    LQ = catalog.get("solv2").lattice.to_field()
    assert lattice_from_json(lattice_to_json(LQ)) == LQ


FRACTIONAL = lie_lattice(["x", "y", "z"], {(0, 1): [0, 0, "-2/3"], (0, 2): ["1/2", 0, 0]}, "Q")


@pytest.mark.parametrize("name", [*catalog.names(), "fractional"])
def test_lattice_json_is_the_dense_encoding_byte_for_byte(name):
    L = FRACTIONAL if name == "fractional" else catalog.get(name).lattice
    for lattice in (L, L.to_field()):
        assert json.dumps(lattice_to_json(lattice)) == json.dumps(dense_lattice_json(lattice))


def test_rep_json_round_trip():
    L = catalog.get("heisenberg3").lattice
    rep = nilpotent_faithful_rep(L)
    back = rep_from_json(rep_to_json(rep), L)
    assert back.matrices == rep.matrices
    assert back.degree == rep.degree


def test_cli_validate_ok(tmp_path, capsys):
    path = write_lattice(tmp_path, "heisenberg3")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_validate_broken_antisymmetry(tmp_path, capsys):
    data = lattice_to_json(catalog.get("heisenberg3").lattice)
    data["brackets"][0]["i"] = 1
    data["brackets"][0]["j"] = 1  # i == j: malformed pair
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2  # schema rejects it before math sees it


def test_cli_validate_jacobi_failure(tmp_path, capsys):
    # legal schema, broken Jacobi
    data = {
        "rank": 3,
        "names": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
            {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
        ],
    }
    path = tmp_path / "jac.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["jacobi_violations"]


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "input error" in err


def _heisenberg_files(tmp_path, entry):
    """heisenberg3 and its nilrep representation, each written with `entry`
    as the raw JSON text of one number: [x, y]'s coefficient on z in the
    lattice file, the first entry of the first matrix in the other."""
    bracket = {"i": 0, "j": 1, "coeffs": ["0", "0", "@"]}
    lattice = {"rank": 3, "names": ["x", "y", "z"], "brackets": [bracket]}
    rep = rep_to_json(nilpotent_faithful_rep(catalog.get("heisenberg3").lattice))
    rep["matrices"][0][0][0] = "@"
    good = tmp_path / "h3.json"
    good.write_text(json.dumps(lattice).replace('"@"', "1"))
    paths = []
    for name, data in (("lattice", lattice), ("rep", rep)):
        path = tmp_path / f"{name}_bad.json"
        path.write_text(json.dumps(data).replace('"@"', entry))
        paths.append(str(path))
    return str(good), *paths


def _assert_both_files_are_format_errors(capsys, tmp_path, entry):
    good, bad_lattice, bad_rep = _heisenberg_files(tmp_path, entry)
    code, out, err = run(capsys, "validate", bad_lattice)
    assert (code, out) == (2, "") and err.startswith("input error: ")
    code, out, err = run(capsys, "verify", good, bad_rep)
    assert (code, out) == (2, "") and err.startswith("input error: ")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter converts integer literals of any length",
)
def test_cli_integer_literal_past_the_digit_limit_is_a_format_error(tmp_path, capsys):
    # json.load raises a plain ValueError on an integer literal longer than
    # the interpreter's digit limit, 4,300 by default
    _assert_both_files_are_format_errors(capsys, tmp_path, "1" * 5001)


def test_cli_file_that_is_not_utf8_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "") and err.startswith("input error: ")


def test_cli_exponent_notation_is_a_format_error(tmp_path, capsys):
    # Fraction would expand 10**10000000 before any check ran
    _assert_both_files_are_format_errors(capsys, tmp_path, '"1e10000000"')
    for text in ("2E3", "1/2e1", "1e-2"):
        with pytest.raises(JsonFormatError):
            frac_from_json(text)


@pytest.mark.parametrize("text", ["0.5", " 3 ", "+3", "1_0", "\u0663"])
def test_cli_number_outside_the_schema_is_a_format_error(tmp_path, capsys, text):
    # Fraction reads each of these (as 1/2, 3, 3, 10 and the Arabic-Indic
    # digit 3); the schema has only "num" and "num/den" in ASCII digits
    _assert_both_files_are_format_errors(capsys, tmp_path, json.dumps(text))
    with pytest.raises(JsonFormatError):
        frac_from_json(text)


def test_cli_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/l.json")
    assert code == 2


def test_cli_radicals(tmp_path, capsys):
    path = write_lattice(tmp_path, "heisenberg3")
    code, out, _ = run(capsys, "radicals", path)
    assert code == 0
    data = json.loads(out)
    assert data["center"] == [["0", "0", "1"]]
    assert len(data["lower_central"]) == 3
    path = write_lattice(tmp_path, "solv2")
    code, out, _ = run(capsys, "radicals", path)
    data = json.loads(out)
    assert data["nilradical"] == [["0", "1"]]
    assert data["solvable_radical"] == [["1", "0"], ["0", "1"]]


def test_cli_radicals_rejects_a_jacobi_break(tmp_path, capsys):
    # +1 on [n0, n1] along n2 of churkin_sl2_t2's strict extension keeps the
    # tensor antisymmetric and breaks Jacobi on (0, 1, 6) only
    _, _, cert = ado_representation(catalog.get("churkin_sl2_t2").lattice, strict=True)
    c = [[list(v) for v in row] for row in cert.extension.c]
    c[0][1][2] += 1
    c[1][0][2] -= 1
    tensor = tuple(tuple(map(tuple, row)) for row in c)
    broken = tensor_lattice(cert.extension.names, tensor, cert.extension.domain)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(lattice_to_json(broken)))
    code, out, err = run(capsys, "radicals", str(path))
    assert code == 1
    assert out == ""
    assert "jacobi ((0, 1, 6),)" in err


def test_cli_nilrep(tmp_path, capsys):
    path = write_lattice(tmp_path, "heisenberg3")
    code, out, _ = run(capsys, "nilrep", path)
    assert code == 0
    data = json.loads(out)
    assert data["representation"]["degree"] == 7
    assert data["monomial_count"] == 7
    assert data["report"]["ok"] is True


def test_cli_nilrep_refuses_a_lattice_that_is_not_nilpotent(tmp_path, capsys):
    expected = (1, "", "error: weighted PBW basis requires a nilpotent lattice\n")
    assert run(capsys, "nilrep", write_lattice(tmp_path, "solv2")) == expected


def write_half_heisenberg(tmp_path):
    # [x, y] = z/2 satisfies the Lie axioms over Q but is not a Z-lattice
    path = tmp_path / "half.json"
    bracket = {"i": 0, "j": 1, "coeffs": ["0", "0", "1/2"]}
    path.write_text(json.dumps({"rank": 3, "names": ["x", "y", "z"], "brackets": [bracket]}))
    return str(path)


def test_cli_nilrep_rejects_a_fractional_bracket(tmp_path, capsys):
    code, out, err = run(capsys, "nilrep", write_half_heisenberg(tmp_path))
    assert code == 1
    assert out == ""
    assert "integrality ((0, 1, 2), (1, 0, 2))" in err


# sha256 of the stdout of `adorep nilrep` on the Q filiform lattice below,
# pinned before its straightening became integer-only; a change meant to
# alter outputs updates it and says why
QF4_NILREP_GOLDEN = "0e4c7799c08760274318a704d009fc278c4af30133d01a0aa354df68ca362027"


def test_cli_nilrep_of_a_fractional_adapted_table_is_pinned(tmp_path, capsys):
    # [x0, x1] = x2/2 and [x0, x2] = x3/3 over Q: adapted denominator 6,
    # class 3, 14 monomials
    brackets = [
        {"i": 0, "j": 1, "coeffs": ["0", "0", "1/2", "0"]},
        {"i": 0, "j": 2, "coeffs": ["0", "0", "0", "1/3"]},
    ]
    names = ["x0", "x1", "x2", "x3"]
    path = tmp_path / "qf4.json"
    path.write_text(json.dumps({"rank": 4, "names": names, "domain": "Q", "brackets": brackets}))
    code, out, _ = run(capsys, "nilrep", str(path))
    assert code == 0 and json.loads(out)["monomial_count"] == 14
    assert hashlib.sha256(out.encode()).hexdigest() == QF4_NILREP_GOLDEN


def test_cli_nilrep_refuses_rank_zero_like_ado(tmp_path, capsys, monkeypatch):
    # the degree-0 representation has no degree bound to report, so nilrep
    # refuses a rank-0 lattice before any work, as ado does
    import adorep.cli

    def refuse(L):
        raise AssertionError("nilrep built a representation of a rank-0 lattice")

    monkeypatch.setattr(adorep.cli, "nilpotent_faithful_rep", refuse)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rank": 0, "names": [], "brackets": []}))
    expected = (1, "", "error: rank-zero lattice has nothing to represent\n")
    assert run(capsys, "nilrep", str(path)) == expected
    assert run(capsys, "ado", str(path)) == expected


def test_cli_embed(tmp_path, capsys):
    path = write_lattice(tmp_path, "churkin_sl2_t2")
    code, out, _ = run(capsys, "embed", path)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["ok"] is True
    assert data["nilpotent_rank"] == 3
    assert data["mu"] == 1 and data["lambda"] == 1
    assert len(data["trace"]) == 1


def test_cli_embed_validates_and_takes_the_radicals_of_the_input_once(
    tmp_path, capsys, monkeypatch
):
    """`adorep embed` validates the input and computes its radicals once,
    as `ado` does, and hands the radicals to both the construction and the
    verifier; its output is the certificate and report it printed before."""
    import adorep.cli
    import adorep.embed
    import adorep.lie_core
    import adorep.pipeline

    from adorep.embed import embed_splittable
    from adorep.jsonio import certificate_report_to_json, certificate_to_json
    from adorep.pipeline import verify_certificate

    path = write_lattice(tmp_path, "churkin_sl2_t2")
    L = catalog.get("churkin_sl2_t2").lattice
    cert = embed_splittable(L)
    expected = certificate_to_json(cert)
    expected["report"] = certificate_report_to_json(verify_certificate(cert))

    calls = {"validate": [], "solvable_radical": []}
    for name, seen in calls.items():
        original = getattr(adorep.lie_core, name)

        def counting(M, *args, _original=original, _seen=seen):
            _seen.append(M.rank)
            return _original(M, *args)

        for module in (adorep.lie_core, adorep.embed, adorep.pipeline, adorep.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    assert run(capsys, "embed", path) == (0, json.dumps(expected) + "\n", "")
    # the input (rank 6) once each, then the extension (rank 7) in the verifier
    assert calls == {"validate": [6, 7], "solvable_radical": [6, 7]}


def test_cli_ado_strict_and_certificate(tmp_path, capsys):
    path = write_lattice(tmp_path, "heisenberg3")
    code, out, _ = run(
        capsys, "ado", path, "--strict-theorem-path", "--emit-certificate"
    )
    assert code == 0
    data = json.loads(out)
    assert data["representation"]["degree"] == 10
    assert data["report"]["ok"] is True
    assert "certificate" in data
    code, out, _ = run(capsys, "ado", path)
    assert json.loads(out)["representation"]["degree"] == 7


def test_cli_verify_round_trip(tmp_path, capsys):
    lat_path = write_lattice(tmp_path, "heisenberg3")
    code, out, _ = run(capsys, "nilrep", lat_path)
    rep_json = json.loads(out)["representation"]
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_json))
    code, out, _ = run(capsys, "verify", lat_path, str(rep_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_verify_rejects_a_fractional_bracket(tmp_path, capsys):
    rep = nilpotent_faithful_rep(catalog.get("heisenberg3").lattice)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_json(rep)))
    code, out, err = run(capsys, "verify", write_half_heisenberg(tmp_path), str(rep_path))
    assert code == 1
    assert out == ""
    assert "integrality ((0, 1, 2), (1, 0, 2))" in err


def test_cli_verify_validates_the_lattice_once(tmp_path, capsys, monkeypatch):
    # verify_representation validates L itself, so the command does not
    import adorep.lie_core

    lat_path = write_lattice(tmp_path, "heisenberg3")
    rep = nilpotent_faithful_rep(catalog.get("heisenberg3").lattice)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep_to_json(rep)))
    calls = []
    original = adorep.lie_core.validate

    def counting(L):
        calls.append(L.rank)
        return original(L)

    # the library validates through `Known`, which calls the lie_core global
    monkeypatch.setattr(adorep.lie_core, "validate", counting)
    code, _, _ = run(capsys, "verify", lat_path, str(rep_path))
    assert code == 0
    assert calls == [3]


def test_cli_nilrep_validates_the_lattice_once(tmp_path, capsys, monkeypatch):
    # the command validates L before the series, and verify_representation,
    # handed the command's Known, does not validate again
    import adorep.cli
    import adorep.lie_core

    calls = []
    original = adorep.lie_core.validate

    def counting(L):
        calls.append(L.rank)
        return original(L)

    for module in (adorep.lie_core, adorep.cli):
        monkeypatch.setattr(module, "validate", counting)
    code, _, _ = run(capsys, "nilrep", write_lattice(tmp_path, "heisenberg5"))
    assert code == 0
    assert calls == [5]


def test_cli_nilrep_reads_the_radicals_off_its_series(tmp_path, capsys, monkeypatch):
    """On F7 the command computes neither radical: the series it holds
    reaches 0, so both are F7 itself.  The output is the one a verifier
    that computes its own radicals gives."""
    import adorep.cli
    import adorep.lie_core
    import adorep.pipeline
    from adorep.jsonio import verification_report_to_json
    from adorep.nilrep import birkhoff_bounds, burde_bound
    from adorep.pipeline import verify_representation

    from oracles import load_bench

    L = load_bench("workloads").filiform(7)
    rep = nilpotent_faithful_rep(L)
    expected = {
        "representation": rep_to_json(rep),
        "monomial_count": rep.degree,
        "burde_bound": frac_to_str(burde_bound(7)),
        "comparison_bounds": {k: frac_to_str(v) for k, v in birkhoff_bounds(7, 6).items()},
        "report": verification_report_to_json(verify_representation(L, rep)),
    }
    path = tmp_path / "F7.json"
    path.write_text(json.dumps(lattice_to_json(L)))

    calls = []

    def unreachable(M, *args):
        calls.append(M.rank)
        raise AssertionError("radical computed for a nilpotent lattice")

    for name in ("solvable_radical", "nilradical"):
        for module in (adorep.lie_core, adorep.pipeline, adorep.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)
    assert run(capsys, "nilrep", str(path)) == (0, json.dumps(expected) + "\n", "")
    assert calls == []


def test_cli_nilrep_reports_an_invalid_lattice_before_the_series(tmp_path, capsys, monkeypatch):
    import adorep.lie_core

    def unreachable(L):
        raise AssertionError("series computed for an invalid lattice")

    # the command's Known computes the series through the lie_core global
    monkeypatch.setattr(adorep.lie_core, "lower_central_series", unreachable)
    # [x0, x1] = x2 and [x0, x2] = x0: the Jacobi sum of (0, 1, 2) is -x2
    path = tmp_path / "bad.json"
    brackets = [
        {"i": 0, "j": 1, "coeffs": ["0", "0", "1"]},
        {"i": 0, "j": 2, "coeffs": ["1", "0", "0"]},
    ]
    path.write_text(json.dumps({"rank": 3, "names": ["x0", "x1", "x2"], "brackets": brackets}))
    code, out, err = run(capsys, "nilrep", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid lattice:") and "jacobi ((0, 1, 2),)" in err


def test_cli_verify_reads_the_representation_before_validating(tmp_path, capsys):
    # an invalid lattice with a malformed representation file is a format
    # error: the file is read before verify_representation validates L
    rep_json = rep_to_json(nilpotent_faithful_rep(catalog.get("heisenberg3").lattice))
    rep_json["matrices"][1][3] = rep_json["matrices"][1][3][:-1]
    rep_path = tmp_path / "ragged.json"
    rep_path.write_text(json.dumps(rep_json))
    code, out, err = run(capsys, "verify", write_half_heisenberg(tmp_path), str(rep_path))
    assert code == 2
    assert out == ""
    assert "every matrix row must have length 7" in err


def test_cli_verify_rejects_adjoint_h3(tmp_path, capsys):
    from adorep.lie_core import adjoint_rep

    lat_path = write_lattice(tmp_path, "heisenberg3")
    rep = adjoint_rep(catalog.get("heisenberg3").lattice)
    rep_path = tmp_path / "ad.json"
    rep_path.write_text(json.dumps(rep_to_json(rep)))
    code, out, _ = run(capsys, "verify", lat_path, str(rep_path))
    assert code == 1
    data = json.loads(out)
    assert data["checks"]["faithfulness"] is False
    assert data["kernel_witness"] == [["0", "0", "1"]]


def test_cli_embed_leftover_denominator_is_internal(tmp_path, capsys, monkeypatch):
    # mu clears every denominator by proof, so one left over is a bug
    import adorep.embed

    monkeypatch.setattr(adorep.embed, "_denominators", lambda M: {2})
    path = write_lattice(tmp_path, "solv2")
    code, out, err = run(capsys, "embed", path)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: denominators [2] remain at mu = 2")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "ado"])
def test_cli_rejects_the_removed_max_scalar_search_flag(tmp_path, capsys, command):
    path = write_lattice(tmp_path, "solv2")
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--max-scalar-search", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-scalar-search" in capsys.readouterr().err


def test_cli_verify_ragged_matrix_is_format_error(tmp_path, capsys):
    lat_path = write_lattice(tmp_path, "heisenberg3")
    rep_json = rep_to_json(nilpotent_faithful_rep(catalog.get("heisenberg3").lattice))
    rep_json["matrices"][1][3] = rep_json["matrices"][1][3][:-1]
    rep_path = tmp_path / "ragged.json"
    rep_path.write_text(json.dumps(rep_json))
    code, _, err = run(capsys, "verify", lat_path, str(rep_path))
    assert code == 2
    assert "every matrix row must have length 7" in err


def test_cli_verify_degree_without_matrices_is_format_error(tmp_path, capsys):
    # a rank-0 lattice takes no matrices, so no matrix carries the degree
    lat_path = tmp_path / "rank0.json"
    lat_path.write_text(json.dumps({"rank": 0, "names": [], "brackets": []}))
    rep_path = tmp_path / "rank0_rep.json"
    rep_path.write_text(json.dumps({"degree": 3, "matrices": []}))
    code, out, err = run(capsys, "verify", str(lat_path), str(rep_path))
    assert (code, out) == (2, "")
    assert err == "input error: a representation with no matrices has degree 0\n"
    rep_path.write_text(json.dumps({"degree": 0, "matrices": []}))
    code, out, _ = run(capsys, "verify", str(lat_path), str(rep_path))
    assert code == 0 and json.loads(out)["degree"] == 0


def test_cli_rejects_boolean_bracket_indices(tmp_path, capsys):
    path = tmp_path / "bool.json"
    bracket = {"i": False, "j": True, "coeffs": ["0", "0"]}
    path.write_text(json.dumps({"rank": 2, "names": ["a", "b"], "brackets": [bracket]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "bracket indices" in err


def test_cli_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert json.loads(out) == [
        "heisenberg3",
        "heisenberg5",
        "abelian_r",
        "sl2",
        "t2_upper",
        "n3_strictly_upper",
        "solv2",
        "solv3_weights",
        "churkin_sl2_t2",
    ]
    code, out, _ = run(capsys, "catalog", "heisenberg3")
    data = json.loads(out)
    assert data["rank"] == 3
    code, out, _ = run(capsys, "catalog", "churkin_sl2_t2")
    data = json.loads(out)
    assert data["rank"] == 6
    # brackets scaled by 2 relative to the unscaled structure constants
    eh = next(b for b in data["brackets"] if (b["i"], b["j"]) == (0, 1))
    assert eh["coeffs"][0] == "-4"
    code, _, err = run(capsys, "catalog", "no_such_entry")
    assert code == 2


def test_cli_catalog_abelian_family(capsys):
    code, out, _ = run(capsys, "catalog", "abelian_5")
    assert code == 0
    assert json.loads(out)["rank"] == 5
    code, out, _ = run(capsys, "catalog", "abelian_r")
    assert json.loads(out)["rank"] == 3


def _raising(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


@pytest.mark.parametrize(
    "module, name, replacement, message",
    [
        ("embed", "jordan_chevalley",
         _raising(RuntimeError("Newton iteration did not converge")),
         "Newton iteration did not converge"),
        ("embed", "levi_decomposition",
         _raising(LiftingError("Levi correction system is inconsistent")),
         "Levi correction system is inconsistent"),
        ("embed", "elementary_expansion",
         _raising(ExpansionError("[N, K] escapes the nilpotent radical")),
         "[N, K] escapes the nilpotent radical"),
        # the radicals' self-checks reject their candidate
        ("lie_core", "is_ideal", lambda L, S: False,
         "solvable radical candidate failed verification"),
        ("lie_core", "is_nilpotent_submodule", lambda L, S: False,
         "nilradical candidate failed verification"),
        # a ValueError from extending a basis the construction nested itself
        ("embed", "extend_basis", _raising(ValueError("inner is not contained in outer")),
         "construction failed: inner is not contained in outer"),
    ],
    ids=["newton", "levi-lift", "expansion", "solvable-radical-check", "nilradical-check",
         "extend-basis"],
)
def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch, module, name, replacement, message):
    # on a valid lattice the construction cannot fail, so each of these is a bug
    monkeypatch.setattr(importlib.import_module(f"adorep.{module}"), name, replacement)
    path = write_lattice(tmp_path, "t2_upper")
    code, out, err = run(capsys, "ado", path, "--strict-theorem-path")
    assert code == 3
    assert out == ""
    assert f"internal error: {message}" in err
    assert "Traceback" not in err


def test_cli_internal_value_error_exit_code(tmp_path, capsys, monkeypatch):
    # a ValueError from a sublattice the construction built itself is a bug,
    # not a mathematical failure of the input
    import adorep.embed

    def broken(*args, **kwargs):
        raise ValueError("submodule is not closed under the bracket")

    monkeypatch.setattr(adorep.embed, "subalgebra_lattice", broken)
    path = write_lattice(tmp_path, "t2_upper")
    code, out, err = run(capsys, "ado", path, "--strict-theorem-path")
    assert code == 3
    assert out == ""
    assert "internal error:" in err and "not closed under the bracket" in err


def test_cli_internal_quotient_error_exit_code(tmp_path, capsys, monkeypatch):
    # the Levi step divides a lattice that is not solvable by its own
    # verified radical, so a failing quotient is a bug as well
    import adorep.embed

    monkeypatch.setattr(
        adorep.embed, "quotient_lattice", _raising(ValueError("quotient section failed"))
    )
    path = write_lattice(tmp_path, "churkin_sl2_t2")
    code, out, err = run(capsys, "ado", path, "--strict-theorem-path")
    assert code == 3
    assert out == ""
    assert "internal error: construction failed: quotient section failed" in err
    assert "Traceback" not in err


def test_cli_expansion_leibniz_failure_is_internal(tmp_path, capsys, monkeypatch):
    # a semisimple part that is no derivation of ideal + S is a bug of the
    # Jordan-Chevalley step, not a property of t2 + t2
    import adorep.embed

    real = adorep.embed.jordan_chevalley

    def shifted(A):
        ds, dn = real(A)
        return ds + ExactMatrix.identity(A.rows), dn

    monkeypatch.setattr(adorep.embed, "jordan_chevalley", shifted)
    path = tmp_path / "t2_squared.json"
    L = direct_sum(catalog.t2_upper(), catalog.t2_upper())
    path.write_text(json.dumps(lattice_to_json(L)))
    code, out, err = run(capsys, "ado", str(path), "--strict-theorem-path")
    assert code == 3
    assert out == ""
    assert "internal error:" in err and "is not a derivation" in err


def test_cli_splittable_rep_value_error_is_internal(tmp_path, capsys, monkeypatch):
    # the extension passed verify_certificate, so a ValueError from building
    # its representation is a bug, not a mathematical failure
    import adorep.pipeline

    monkeypatch.setattr(
        adorep.pipeline, "splittable_rep", _raising(LeibnizError("not a derivation"))
    )
    path = write_lattice(tmp_path, "t2_upper")
    code, out, err = run(capsys, "ado", path, "--strict-theorem-path")
    assert code == 3
    assert out == ""
    assert "internal error: construction failed: not a derivation" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, module, name",
    [
        *[(command, "embed", name)
          for command in ("ado", "embed")
          for name in ("invert", "solve_right", "kernel_basis", "jordan_chevalley")],
        ("ado", "pipeline", "restrict_rep"),
        ("ado", "pipeline", "direct_sum_rep"),
        ("ado", "nilrep", "build_weighted_basis"),
        ("ado", "pipeline", "adjoint_rep"),
    ],
)
def test_cli_construction_value_error_is_internal(tmp_path, capsys, monkeypatch, command, module, name):
    # after the input checks, a ValueError anywhere in the construction is a
    # bug: one boundary per entry point files it as exit 3.  The builders of
    # the two non-strict shortcuts run on a lattice that takes the shortcut
    monkeypatch.setattr(
        importlib.import_module(f"adorep.{module}"), name, _raising(ValueError("planted"))
    )
    shortcut = {"build_weighted_basis": "heisenberg3", "adjoint_rep": "sl2"}.get(name)
    if shortcut is not None:
        argv = [command, write_lattice(tmp_path, shortcut)]
    else:
        path = write_lattice(tmp_path, "churkin_sl2_t2")
        argv = [command, path] + (["--strict-theorem-path"] if command == "ado" else [])
    assert run(capsys, *argv) == (3, "", "internal error: construction failed: planted\n")


@pytest.mark.parametrize("argv", [["embed"], ["ado", "--strict-theorem-path"]])
def test_cli_rational_domain_is_an_input_error(tmp_path, capsys, argv):
    # the domain check runs before the construction's boundary, so a lattice
    # over Q is a property of the input: exit 1, not 3
    path = tmp_path / "t2_q.json"
    path.write_text(json.dumps(lattice_to_json(catalog.t2_upper().to_field())))
    expected = (1, "", "error: embedding is defined for lattices over Z\n")
    assert run(capsys, argv[0], str(path), *argv[1:]) == expected


@pytest.mark.parametrize(
    "value, info",
    [("Info", True), ("DEBUG", True), ("warning", False), ("basic_format", False), ("_styles", False), ("nonsense", False)],
)
def test_ado_log_takes_level_names_only(tmp_path, value, info):
    # in a fresh interpreter: under pytest the root logger already has
    # handlers, so basicConfig would not set the level in-process
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "ADO_LOG": value, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "adorep.cli", "ado", write_lattice(tmp_path, "solv2")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("INFO adorep.pipeline: ado path=" in proc.stderr) == info
