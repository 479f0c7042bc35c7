import numpy as np
import pytest

from blockpivot import (
    DEFAULT_TOL,
    BlockMatrix,
    GenSpec,
    InclusionError,
    InvalidInputError,
    NoSolutionError,
    PreconditionError,
    jppt,
    max_abs,
    objective,
    ppt_min,
    rand_matrix,
    rand_saddle_instance,
    rand_saddle_rhs,
    reconstruct_jppt_from_minima,
    schur_complement,
    schur_min,
    solve_saddle,
)
from blockpivot.rng import Xoshiro256pp

# admissible 3x3 instance with a singular pivot block
SINGULAR_PIVOT = BlockMatrix(1, 2, np.array([
    [1.0, 1.0, 0.0],
    [1.0, 1.0, 0.0],
    [0.0, 0.0, 0.0],
]))


def test_objective_value():
    eye = BlockMatrix(1, 1, np.eye(2))
    assert objective(eye, [1.0], [2.0], [2.0]) == pytest.approx(-1.5)
    # quadratic part alone when y2 = 0
    assert objective(eye, [1.0], [2.0], [0.0]) == pytest.approx(2.5)


def test_schur_min_identity():
    eye = BlockMatrix(1, 1, np.eye(2))
    result = schur_min(eye, [1.0])
    assert result.value == pytest.approx(1.0)
    assert np.allclose(result.minimizers.particular, [0.0])
    assert result.minimizers.kernel.dim == 0


def test_ppt_min_identity():
    eye = BlockMatrix(1, 1, np.eye(2))
    result = ppt_min(eye, [1.0], [2.0])
    assert result.value == pytest.approx(-1.5)
    assert np.allclose(result.minimizers.particular, [2.0])
    # the minimum is attained by the objective
    assert objective(eye, [1.0], result.minimizers.particular, [2.0]) == pytest.approx(-1.5)


def test_min_with_singular_pivot():
    result = schur_min(SINGULAR_PIVOT, [1.0])
    assert result.value == pytest.approx(0.0)
    assert np.allclose(result.minimizers.particular, [-1.0, 0.0])
    assert result.minimizers.kernel.dim == 1
    # the whole minimizer set is flat
    for s in (-2.0, 0.3, 5.0):
        x2 = result.minimizers.point([s])
        assert result.minimizers.contains(x2)
        assert objective(SINGULAR_PIVOT, [1.0], x2, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    # at y2 = 0 the coupled value is half the Schur value
    coupled = ppt_min(SINGULAR_PIVOT, [1.0], [0.0, 0.0])
    assert coupled.value == pytest.approx(0.5 * result.value)
    assert np.allclose(coupled.minimizers.particular, result.minimizers.particular)


def test_min_preconditions_reject_bad_instances(pair_2x2, pair_4x4):
    neg_pivot, _ = pair_2x2  # pivot block is -1, not PSD
    with pytest.raises(PreconditionError):
        schur_min(neg_pivot, [1.0])
    leaky, _ = pair_4x4  # ker A22 leaks out of ker A12
    for call in (
        lambda: schur_min(leaky, [1.0, 0.0]),
        lambda: ppt_min(leaky, [1.0, 0.0], [0.0, 0.0]),
    ):
        with pytest.raises(InclusionError) as err:
            call()
        assert err.value.which == "ker22_in_ker12"
        assert err.value.certificate > DEFAULT_TOL.scaled_eq_tol(leaky.data)


def test_minimum_beats_random_perturbations():
    rng = Xoshiro256pp(11235)
    for _ in range(10):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()))
        x1, y2 = rand_saddle_rhs(a, rng.next_uint64())
        result = ppt_min(a, x1, y2)
        base = result.minimizers.particular
        for _ in range(15):
            delta = rand_matrix(n2, 1, fld, rng.next_uint64())[:, 0]
            assert objective(a, x1, base + delta, y2) >= result.value - 1e-10


def test_solve_identity():
    eye = BlockMatrix(1, 1, np.eye(2))
    sol = solve_saddle(eye, [1.0], [2.0])
    assert np.allclose(sol.y1, [1.0])
    assert np.allclose(sol.particular_x2, [2.0])
    assert sol.x2_set.kernel.dim == 0
    assert sol.packaging_residual <= 1e-14


def test_solve_singular_pivot_full_solution_set():
    sol = solve_saddle(SINGULAR_PIVOT, [2.0], [2.0, 0.0])
    # y1 = S x1 + A12 A22^+ y2 = 0 + 2
    assert np.allclose(sol.y1, [2.0])
    assert sol.x2_set.kernel.dim == 1
    a = SINGULAR_PIVOT.data
    for s in (-1.0, 0.0, 4.0):
        z = np.concatenate([[2.0], sol.x2_set.point([s])])
        rhs = np.concatenate([sol.y1, [2.0, 0.0]])
        assert np.linalg.norm(a @ z - rhs) <= 1e-10


def test_solve_packaging_matches_jppt():
    rng = Xoshiro256pp(999)
    for _ in range(10):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(
            GenSpec(n1, n2, fld, rng.next_uint64()), hermitian=bool(rng.randint(2))
        )
        x1, y2 = rand_saddle_rhs(a, rng.next_uint64())
        sol = solve_saddle(a, x1, y2)
        z = np.concatenate([x1, y2])
        packaged = jppt(a).data @ z
        assert np.allclose(packaged[: a.n1], sol.y1, atol=1e-9)
        assert np.allclose(packaged[a.n1 :], -sol.particular_x2, atol=1e-9)


def test_solve_no_solution():
    a = BlockMatrix(1, 1, np.diag([1.0, 0.0]))
    with pytest.raises(NoSolutionError) as err:
        solve_saddle(a, [1.0], [1.0])
    assert err.value.certificate == pytest.approx(1.0)
    # the attainable right-hand side works fine
    sol = solve_saddle(a, [1.0], [0.0])
    assert np.allclose(sol.y1, [1.0])


def test_solve_inclusion_preconditions():
    for data, which in (
        ([[0.0, 1.0], [0.0, 0.0]], "ker22_in_ker12"),
        ([[0.0, 0.0], [1.0, 0.0]], "ran21_in_ran22"),
        ([[0.0, 1.0], [2.0, 0.0]], "ker22_in_ker12"),  # both fail: the kernel is read first
    ):
        a = BlockMatrix(1, 1, np.array(data))
        with pytest.raises(InclusionError) as err:
            solve_saddle(a, [1.0], [0.0])
        assert err.value.which == which
        assert err.value.certificate > DEFAULT_TOL.scaled_eq_tol(a.data)


def test_solve_input_validation():
    eye = BlockMatrix(1, 1, np.eye(2))
    with pytest.raises(InvalidInputError):
        solve_saddle(eye, [1.0, 2.0], [0.0])  # x1 has the wrong length


def test_reconstruction_identity():
    eye = BlockMatrix(1, 1, np.eye(2))
    assert max_abs(reconstruct_jppt_from_minima(eye) - np.diag([1.0, -1.0])) <= 1e-12


def test_reconstruction_on_generated_instances():
    rng = Xoshiro256pp(30103)
    for _ in range(8):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()))
        rebuilt = reconstruct_jppt_from_minima(a)
        assert max_abs(rebuilt - jppt(a).data) <= 1e-8


def test_schur_min_matches_schur_quadratic():
    rng = Xoshiro256pp(60606)
    for _ in range(10):
        n1 = 1 + rng.randint(3)
        n2 = 1 + rng.randint(3)
        fld = "complex" if rng.randint(2) else "real"
        a = rand_saddle_instance(GenSpec(n1, n2, fld, rng.next_uint64()))
        x1 = rand_matrix(n1, 1, fld, rng.next_uint64())[:, 0]
        result = schur_min(a, x1)
        s = schur_complement(a)
        assert result.value == pytest.approx(float(np.real(np.vdot(x1, s @ x1))), abs=1e-10)
