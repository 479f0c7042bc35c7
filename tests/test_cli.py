"""End-to-end tests for the command-line front end.

Every test drives ``main`` in-process with an argv list and inspects the
exit code plus the captured JSON-lines (or human) output.
"""

import json

import numpy as np
import pytest

from blockpivot.blockmat import BlockMatrix
from blockpivot.cli import main
from blockpivot.matrixio import save_matrix


def _write(tmp_path, name, bm):
    path = tmp_path / name
    save_matrix(bm, path)
    return str(path)


def _records(captured_out):
    return [json.loads(line) for line in captured_out.strip().splitlines()]


def _find(records, **keys):
    for rec in records:
        if all(rec.get(k) == v for k, v in keys.items()):
            return rec
    raise AssertionError(f"no record matching {keys} in {records}")


# ---------------------------------------------------------------------------
# transform


def test_transform_jppt_small_pair(tmp_path, capsys, pair_2x2):
    a, _ = pair_2x2
    path = _write(tmp_path, "a.json", a)
    rc = main(["transform", path, "--which", "jppt"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["field"] == "real"
    assert doc["n1"] == 1 and doc["n2"] == 1
    np.testing.assert_allclose(doc["entries"], [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_transform_ppt_identity(tmp_path, capsys):
    eye = BlockMatrix(1, 1, np.eye(2))
    path = _write(tmp_path, "i.json", eye)
    rc = main(["transform", path, "--which", "ppt"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    np.testing.assert_allclose(doc["entries"], [1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_transform_schur_collapses_partition(tmp_path, capsys, pair_4x4):
    a, _ = pair_4x4
    path = _write(tmp_path, "a4.json", a)
    rc = main(["transform", path, "--which", "schur"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["n1"] == 2 and doc["n2"] == 0
    np.testing.assert_allclose(doc["entries"], [-0.125, 0.0, 0.0, 0.0], atol=1e-12)


def test_transform_pinv_scales_inverse(tmp_path, capsys):
    bm = BlockMatrix(1, 0, np.array([[2.0]]))
    path = _write(tmp_path, "s.json", bm)
    rc = main(["transform", path, "--which", "pinv"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["n1"] == 1 and doc["n2"] == 0
    np.testing.assert_allclose(doc["entries"], [0.5], atol=1e-14)


def test_transform_hat_grows_partition(tmp_path, capsys, pair_2x2):
    a, _ = pair_2x2
    path = _write(tmp_path, "a.json", a)
    rc = main(["transform", path, "--which", "hat"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["n1"] == 2 and doc["n2"] == 1
    expected = [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, -1.0, -1.0]
    np.testing.assert_allclose(doc["entries"], expected, atol=1e-12)


def test_transform_human_output(tmp_path, capsys, pair_2x2):
    a, _ = pair_2x2
    path = _write(tmp_path, "a.json", a)
    rc = main(["transform", path, "--which", "jppt", "--human"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "partition (1, 1), field real" in out


def test_transform_complex_entries_encoded_as_pairs(tmp_path, capsys):
    data = np.array([[1.0 + 2.0j, 0.0], [0.0, 1.0]], dtype=np.complex128)
    path = _write(tmp_path, "c.json", BlockMatrix(1, 1, data))
    rc = main(["transform", path, "--which", "ppt"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["field"] == "complex"
    assert doc["entries"][0] == [1.0, 2.0]
    assert doc["entries"][3] == [1.0, 0.0]


def test_transform_missing_file_is_usage_error(tmp_path, capsys):
    rc = main(["transform", str(tmp_path / "absent.json"), "--which", "jppt"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no such file" in err


def test_transform_malformed_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "real", "n1": 1, "n2": 1, "entries": [1, 2, 3]}')
    rc = main(["transform", str(path), "--which", "jppt"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "entries" in err


def test_transform_rejects_bad_tolerance(tmp_path, capsys, pair_2x2):
    a, _ = pair_2x2
    path = _write(tmp_path, "a.json", a)
    rc = main(["transform", path, "--which", "jppt", "--rank-tol", "-1"])
    assert rc == 2


# ---------------------------------------------------------------------------
# check-monotone


def test_check_monotone_small_pair(tmp_path, capsys, pair_2x2):
    a, b = pair_2x2
    pa = _write(tmp_path, "a.json", a)
    pb = _write(tmp_path, "b.json", b)
    rc = main(["check-monotone", pa, pb])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    assert _find(records, check="hypothesis")["pass"] is True
    stmts = _find(records, check="statements")
    assert stmts["ppt_ordered"] is False
    assert stmts["pinv_reversed"] is False
    assert stmts["rank_path_constant"] is False
    assert stmts["schur_ordered"] is True  # both Schur complements are zero
    assert stmts["consistent"] is True
    assert abs(stmts["witness_t"] - 0.5) <= 1e-6
    assert _find(records, summary="pass")


def test_check_monotone_structured_pair(tmp_path, capsys, pair_4x4):
    a, b = pair_4x4
    pa = _write(tmp_path, "a4.json", a)
    pb = _write(tmp_path, "b4.json", b)
    rc = main(["check-monotone", pa, pb])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    stmts = _find(records, check="statements")
    assert stmts["ppt_ordered"] is True
    assert stmts["pinv_reversed"] is True
    assert stmts["rank_path_constant"] is True
    assert stmts["schur_ordered"] is True
    assert stmts["consistent"] is True
    assert stmts["witness_t"] is None


def test_check_monotone_seam_pair_passes(tmp_path, capsys):
    # a pivot eigenvalue below psd_tol but above the zero test's cutoff
    pa = _write(tmp_path, "a.json", BlockMatrix(0, 1, [[3e-9]]))
    pb = _write(tmp_path, "b.json", BlockMatrix(0, 1, [[1.0]]))
    rc = main(["check-monotone", pa, pb])
    stmts = _find(_records(capsys.readouterr().out), check="statements")
    assert rc == 0
    assert stmts["rank_path_constant"] is True and stmts["consistent"] is True


def test_check_monotone_reversed_hypothesis_fails(tmp_path, capsys, pair_2x2):
    a, b = pair_2x2
    pa = _write(tmp_path, "a.json", a)
    pb = _write(tmp_path, "b.json", b)
    rc = main(["check-monotone", pb, pa])  # larger matrix first
    records = _records(capsys.readouterr().out)
    assert rc == 1
    assert _find(records, check="hypothesis")["pass"] is False
    assert _find(records, summary="fail")


def test_check_monotone_partition_mismatch(tmp_path, capsys, pair_2x2, pair_4x4):
    a, _ = pair_2x2
    b, _ = pair_4x4
    pa = _write(tmp_path, "a.json", a)
    pb = _write(tmp_path, "b.json", b)
    rc = main(["check-monotone", pa, pb])
    assert rc == 2


def test_check_monotone_non_hermitian_rejected(tmp_path, capsys):
    bm = BlockMatrix(1, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    path = _write(tmp_path, "n.json", bm)
    rc = main(["check-monotone", path, path])
    assert rc == 2


def test_check_monotone_human_output(tmp_path, capsys, pair_4x4):
    a, b = pair_4x4
    pa = _write(tmp_path, "a4.json", a)
    pb = _write(tmp_path, "b4.json", b)
    rc = main(["check-monotone", pa, pb, "--human"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "consistent=yes" in out
    assert "summary=pass" in out


# ---------------------------------------------------------------------------
# solve


def test_solve_identity_system(tmp_path, capsys):
    eye = BlockMatrix(1, 1, np.eye(2))
    path = _write(tmp_path, "i.json", eye)
    rc = main(["solve", path, "--x1", "[1.0]", "--y2", "[2.0]"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    sol = _find(records, check="solution")
    np.testing.assert_allclose(sol["y1"], [1.0], atol=1e-14)
    np.testing.assert_allclose(sol["x2_particular"], [2.0], atol=1e-14)
    basis = _find(records, check="kernel-basis")
    assert basis["dimension"] == 0
    res = _find(records, check="residuals")
    assert res["block_equation"] <= 1e-12
    assert res["packaging"] <= 1e-12


def test_solve_singular_pivot_reports_kernel(tmp_path, capsys):
    data = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    path = _write(tmp_path, "s.json", BlockMatrix(1, 2, data))
    rc = main(["solve", path, "--x1", "[1.0]", "--y2", "[1.0, 0.0]"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    sol = _find(records, check="solution")
    np.testing.assert_allclose(sol["y1"], [1.0], atol=1e-12)
    np.testing.assert_allclose(sol["x2_particular"], [0.0, 0.0], atol=1e-12)
    basis = _find(records, check="kernel-basis")
    assert basis["dimension"] == 1
    column = np.array(basis["columns"][0], dtype=float)
    np.testing.assert_allclose(np.abs(column), [0.0, 1.0], atol=1e-12)


def test_solve_unreachable_target_exits_one(tmp_path, capsys):
    data = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    path = _write(tmp_path, "s.json", BlockMatrix(1, 2, data))
    rc = main(["solve", path, "--x1", "[0.0]", "--y2", "[0.0, 1.0]"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "certificate" in err


def test_solve_inadmissible_matrix_exits_two(tmp_path, capsys):
    bm = BlockMatrix(1, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = _write(tmp_path, "x.json", bm)
    rc = main(["solve", path, "--x1", "[1.0]", "--y2", "[0.0]"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_solve_vector_length_mismatch(tmp_path, capsys):
    eye = BlockMatrix(1, 1, np.eye(2))
    path = _write(tmp_path, "i.json", eye)
    rc = main(["solve", path, "--x1", "[1.0, 2.0]", "--y2", "[0.0]"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "x1" in err


def test_solve_complex_vectors_round_trip(tmp_path, capsys):
    data = np.eye(2, dtype=np.complex128)
    path = _write(tmp_path, "ci.json", BlockMatrix(1, 1, data))
    rc = main(["solve", path, "--x1", "[[1.0, 1.0]]", "--y2", "[[0.0, -2.0]]"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    sol = _find(records, check="solution")
    assert sol["y1"] == [[1.0, 1.0]]
    assert sol["x2_particular"] == [[0.0, -2.0]]


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite_passes(capsys):
    rc = main(["verify", "--suite", "penrose", "--trials", "5", "--seed", "3"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    suite = _find(records, check="suite", suite="penrose")
    assert suite["trials"] == 5
    assert suite["failures"] == 0
    assert suite["pass"] is True
    summary = _find(records, summary="pass")
    assert summary["suites"] == 1


def test_verify_all_enumerates_every_suite(capsys):
    rc = main(["verify", "--suite", "all", "--trials", "3", "--seed", "11"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    suites = [r for r in records if r.get("check") == "suite"]
    assert len(suites) == 8
    # each suite reports the wall time of its trial loop
    for record in suites:
        assert isinstance(record["seconds"], float) and record["seconds"] >= 0.0
    summary = _find(records, summary="pass")
    assert summary["suites"] == 8 and summary["failures"] == 0


def test_verify_header_echoes_tolerances(capsys):
    rc = main(["verify", "--suite", "involution", "--trials", "2",
               "--seed", "1", "--eq-tol", "1e-7"])
    records = _records(capsys.readouterr().out)
    assert rc == 0
    header = _find(records, command="verify")
    assert header["tolerances"]["eq_tol"] == 1e-7


def test_verify_zero_trials_is_usage_error(capsys):
    rc = main(["verify", "--suite", "penrose", "--trials", "0"])
    assert rc == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    rc = main(["verify", "--suite", "nonesuch", "--trials", "2"])
    assert rc == 2


def test_verify_human_output(capsys):
    rc = main(["verify", "--suite", "embedding", "--trials", "2",
               "--seed", "5", "--human"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "summary=pass" in out
    assert "suite=embedding" in out and "seconds=" in out


# ---------------------------------------------------------------------------
# parser-level behavior


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "transform" in capsys.readouterr().out
