import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import project_simplex_bruteforce
from stochvi.errors import BlockMismatch, DimensionMismatch, InfeasibleAffine
from stochvi.projection import (
    AffineSubspace,
    Ball,
    Box,
    CartesianProduct,
    Halfspace,
    NonnegativeOrthant,
    Simplex,
    WholeSpace,
    feasible_set_from_config,
    project,
    set_distance,
    split_separable,
)

SEED = 918273


def all_sets():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 5))
    return [
        ("whole_space", WholeSpace(4), 4),
        ("box", Box(-np.ones(4), np.ones(4)), 4),
        ("orthant", NonnegativeOrthant(4), 4),
        ("ball", Ball(np.array([0.5, -0.5, 0.0]), 2.0), 3),
        ("simplex", Simplex(5, scale=2.0), 5),
        ("halfspace", Halfspace(np.array([1.0, -2.0, 0.5]), 1.5), 3),
        ("affine", AffineSubspace(A, np.array([1.0, -0.3])), 5),
        ("cartesian",
         CartesianProduct((Box(np.zeros(2), np.ones(2)), NonnegativeOrthant(2),
                           Ball(np.zeros(2), 1.0)), (2, 2, 2)), 6),
    ]


def test_box_clamp():
    box = Box(np.zeros(2), np.ones(2))
    assert np.array_equal(project(box, np.array([-0.5, 2.0])), [0.0, 1.0])


def test_ball_radial_scaling():
    ball = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(project(ball, np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_simplex_symmetric_point():
    np.testing.assert_allclose(
        project(Simplex(2), np.array([0.8, 0.8])), [0.5, 0.5], atol=1e-14)


def test_simplex_matches_bruteforce_oracle(rng):
    simp = Simplex(6, scale=1.5)
    for _ in range(60):
        x = 3.0 * rng.standard_normal(6)
        np.testing.assert_allclose(
            project(simp, x), project_simplex_bruteforce(x, 1.5), atol=1e-12)


def test_halfspace_hand_case():
    hs = Halfspace(np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(project(hs, np.array([3.0, 5.0])), [1.0, 5.0], atol=1e-15)
    assert np.array_equal(project(hs, np.array([0.5, -2.0])), [0.5, -2.0])


def test_affine_projection_zero_sum_plane():
    # {y : sum y = 0}: projection subtracts the mean
    aff = AffineSubspace(np.ones((1, 4)), np.zeros(1))
    x = np.array([1.0, 2.0, 3.0, 6.0])
    np.testing.assert_allclose(project(aff, x), x - x.mean(), atol=1e-12)


def test_affine_inconsistent_system_raises():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InfeasibleAffine):
        AffineSubspace(A, np.array([0.0, 1.0]))


def test_affine_rank_deficient_consistent_fails_loudly():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        AffineSubspace(A, np.array([1.0, 2.0]))


def test_cartesian_example():
    sets = CartesianProduct((Box(np.zeros(1), np.ones(1)), NonnegativeOrthant(1)), (1, 1))
    assert np.array_equal(sets.project(np.array([2.0, -1.0])), [1.0, 0.0])


def test_cartesian_single_block_degenerates_to_project():
    ball = Ball(np.zeros(3), 1.0)
    x = np.array([2.0, -1.0, 0.5])
    np.testing.assert_array_equal(
        CartesianProduct((ball,), (3,)).project(x), project(ball, x))


def test_cartesian_matches_monolithic_split(rng):
    box = Box(-np.ones(6), np.arange(1.0, 7.0))
    cart = split_separable(box, (2, 3, 1))
    for _ in range(50):
        x = 5 * rng.standard_normal(6)
        np.testing.assert_allclose(cart.project(x), box.project(x), atol=1e-14)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project(Box(np.zeros(3), np.ones(3)), np.array([1.0, 2.0]))
    with pytest.raises(BlockMismatch):
        CartesianProduct((WholeSpace(2),), (3,))


def test_set_distance_examples():
    assert set_distance(NonnegativeOrthant(2), np.array([-3.0, 4.0])) == pytest.approx(3.0)
    assert set_distance(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0])) == pytest.approx(4.0)
    assert set_distance(Box(np.zeros(2), np.ones(2)), np.array([0.5, 0.2])) == 0.0


@pytest.mark.parametrize("name,fset,dim", all_sets())
def test_projection_property_suite(name, fset, dim):
    """Nonexpansiveness, variational characterization, firm inequality,
    idempotence -- the randomized contract of an exact projection."""
    rng = np.random.default_rng(SEED)
    n_pairs = 10_000
    X = 4.0 * rng.standard_normal((n_pairs, dim))
    Y = 4.0 * rng.standard_normal((n_pairs, dim))
    PX, PY = fset.project(X), fset.project(Y)

    # nonexpansiveness
    lhs = np.linalg.norm(PX - PY, axis=1)
    rhs = np.linalg.norm(X - Y, axis=1)
    assert np.all(lhs <= rhs + 1e-12), name

    # idempotence
    assert np.max(np.linalg.norm(fset.project(PX[:200]) - PX[:200], axis=1)) <= 1e-14

    # feasibility of outputs
    assert np.max(set_distance(fset, PX[:200])) <= 1e-10

    # characterization <x - Px, y - Px> <= 0 and the firm inequality,
    # against 100 random feasible points per projected point
    feas = fset.sample(np.random.default_rng(SEED + 1), 100, n=dim, scale=2.0)
    x = X[:100]
    px = PX[:100]
    inner = np.einsum("ij,ikj->ik", x - px, feas[None, :, :] - px[:, None, :])
    assert np.max(inner) <= 1e-10, name
    firm = (np.sum((px[:, None, :] - feas[None, :, :]) ** 2, axis=2)
            + np.sum((px - x) ** 2, axis=1)[:, None]
            - np.sum((x[:, None, :] - feas[None, :, :]) ** 2, axis=2))
    assert np.max(firm) <= 1e-10, name


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
       st.floats(0.1, 10.0))
def test_ball_projection_idempotent_and_feasible(point, radius):
    ball = Ball(np.zeros(3), radius)
    p = project(ball, np.array(point))
    assert np.linalg.norm(p) <= radius + 1e-9
    np.testing.assert_allclose(project(ball, p), p, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
def test_simplex_output_on_simplex(point):
    simp = Simplex(4, scale=3.0)
    p = project(simp, np.array(point))
    assert np.all(p >= -1e-12)
    assert p.sum() == pytest.approx(3.0, abs=1e-9)


def test_config_round_trip():
    for _, fset, _ in all_sets():
        rebuilt = feasible_set_from_config(fset.to_config())
        assert rebuilt.to_config() == fset.to_config()


def test_config_unknown_key_rejected():
    from stochvi.errors import ConfigError

    with pytest.raises(ConfigError):
        feasible_set_from_config({"variant": "box", "lower": [0], "upper": [1], "foo": 2})
