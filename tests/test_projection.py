from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import (
    project_ball_where,
    project_cartesian_per_factor,
    project_simplex_bruteforce,
)
from stochvi.errors import (
    BlockMismatch,
    DimensionMismatch,
    InfeasibleAffine,
    InvalidParameters,
)
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
    block_slices,
    set_distance,
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


def test_finite_box_samples_uniformly():
    box = Box([-1.0, 0.0, 2.0], [1.0, 0.5, 2.0])
    want = np.random.default_rng(7).uniform(box.lower, box.upper, size=(40, 3))
    assert box.sample(np.random.default_rng(7), 40).tobytes() == want.tobytes()


@pytest.mark.parametrize("fset", [
    Box([-1.0, 0.0], [1.0, np.inf]),
    Box([-np.inf, -np.inf], [np.inf, np.inf]),
    CartesianProduct((Box([-np.inf], [0.0]), Ball([0.0, 0.0], 1.0)), (1, 2)),
], ids=["half_open", "unbounded", "cartesian"])
def test_box_with_an_infinite_bound_samples_feasible_points(fset):
    """A uniform draw has no infinite range: the box draws projected
    normal points instead, finite and feasible, spread by ``scale``."""
    pts = fset.sample(np.random.default_rng(7), 500, scale=3.0)
    assert pts.shape == (500, fset.dim) and np.isfinite(pts).all()
    assert (set_distance(fset, pts) == 0.0).all()
    assert np.std(pts, axis=0).max() > 1.0


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


@pytest.mark.parametrize("point", [[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.nan],
                                   [[1.0, 2.0], [np.inf, -np.inf]]])
def test_halfspace_rejects_nonfinite_points(point):
    # the projection of an infinite point onto a halfspace can be unbounded
    with pytest.raises(InvalidParameters, match="finite"):
        Halfspace(np.array([1.0, 0.0]), 0.0).project(point)


@pytest.mark.parametrize("fset", [Ball(np.zeros(2), 1.0), Simplex(2)], ids=["ball", "simplex"])
@pytest.mark.parametrize("point", [[np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf],
                                   [[1.0, 2.0], [0.0, np.inf]]])
def test_ball_and_simplex_reject_infinite_points(fset, point):
    # one infinite coordinate has a limit; with several, it depends on their rates
    with pytest.raises(InvalidParameters, match="no infinite coordinate"):
        fset.project(point)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a NaN row, as intended
def test_simplex_keeps_a_nan_row_with_an_infinite_coordinate():
    # hard_ball_rows holds the ball's such row
    out = Simplex(2).project(np.array([[np.nan, np.inf], [1.0, 2.0]]))
    assert np.isnan(out[0]).all() and out[1].tolist() == [0.0, 1.0]


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
    with pytest.raises(InvalidParameters, match="rank 1"):
        AffineSubspace(A, np.array([1.0, 2.0]))


@pytest.mark.parametrize("d, tol", [(1e-6, 1e-8), (1e-8, 1e-6), (1e-10, 1e-4)])
def test_affine_projection_stays_on_an_ill_conditioned_set(d, tol):
    # a Cholesky factor of A A^T squares A's condition number: it projected
    # 0 to |A y - b| = 7e-4 at d = 1e-6 and 0.5 at 1e-8, and failed at 1e-10
    A, b = np.array([[1.0, 1.0], [1.0, 1.0 + d]]), np.array([1.0, 2.0])
    y = AffineSubspace(A, b).project(np.zeros(2))
    assert np.abs(A @ y - b).max() <= tol


def test_cartesian_example():
    sets = CartesianProduct((Box(np.zeros(1), np.ones(1)), NonnegativeOrthant(1)), (1, 1))
    assert np.array_equal(sets.project(np.array([2.0, -1.0])), [1.0, 0.0])


def test_cartesian_single_block_degenerates_to_project():
    ball = Ball(np.zeros(3), 1.0)
    x = np.array([2.0, -1.0, 0.5])
    np.testing.assert_array_equal(
        CartesianProduct((ball,), (3,)).project(x), project(ball, x))


def test_cartesian_matches_monolithic_split(rng):
    """A whole space, an orthant and a box project every row, the awkward
    values too, to the same bytes as the product of their factors."""
    lower = np.array([-1.0, -0.0, 0.0, -np.inf, -np.inf, 2.0])
    upper = np.array([1.0, 0.0, np.inf, np.inf, 3.0, 2.0])
    awkward = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
    X = np.concatenate([5 * rng.standard_normal((50, 6)),
                        rng.choice(awkward, size=(200, 6))])
    for sizes in ((2, 3, 1), (6,)):
        for fset, parts in [(WholeSpace(), [WholeSpace(s) for s in sizes]),
                            (WholeSpace(6), [WholeSpace() for s in sizes]),
                            (NonnegativeOrthant(), [NonnegativeOrthant(s) for s in sizes]),
                            (NonnegativeOrthant(6), [NonnegativeOrthant() for s in sizes]),
                            (Box(lower, upper),
                             [Box(lower[sl], upper[sl]) for sl in block_slices(sizes)])]:
            cart = CartesianProduct(tuple(parts), sizes)
            for x in (X, X[0], X[-1]):
                assert cart.project(x).tobytes() == fset.project(x).tobytes()


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


def ball_points(ball, rng):
    """Rows inside, outside, on the sphere, at the centre, and at the
    centre with -0.0 offsets."""
    n = ball.dim
    rows = ball.center + ball.radius * rng.uniform(-2.0, 2.0, (64, n))
    on_sphere = ball.center + ball.radius * np.eye(n)
    signed_zero = np.where(np.arange(n) % 2, -0.0, 0.0)
    return np.concatenate([rows, on_sphere, -on_sphere, [ball.center],
                           [ball.center + signed_zero], [signed_zero]])


@pytest.mark.parametrize("kind", ["ball", "cartesian"])
def test_batch_projection_matches_single_points_bitwise(kind):
    """A batch projects each row exactly as that point alone, signed zeros
    included, and the ball's norm is ``np.linalg.norm``'s bit for bit."""
    rng = np.random.default_rng(SEED)
    ball = Ball(np.array([0.5, -0.5, 0.0]), 2.0)
    if kind == "ball":
        fset, X = ball, ball_points(ball, rng)
    else:
        small = Ball(np.array([-0.0, 1.0]), 0.5)
        fset = CartesianProduct((ball, Box(-np.ones(1), np.ones(1)), small), (3, 1, 2))
        little = ball_points(small, rng)
        big = ball_points(ball, rng)[-len(little):]  # the special rows end both
        X = np.concatenate([big, np.full((len(big), 1), -0.0), little], axis=1)
    batch = fset.project(X)
    for x, row in zip(X, batch):
        assert fset.project(x).tobytes() == row.tobytes()
    d = X[:, :3] - ball.center
    nrm = np.linalg.norm(d, axis=-1, keepdims=True)
    ref = ball.center + d * np.where(nrm > 2.0, 2.0 / np.maximum(nrm, 1e-300), 1.0)
    assert ref.tobytes() == np.ascontiguousarray(batch[:, :3]).tobytes()


def tie_rows(rng, n, n_random=40):
    """Random rows, then every coordinate at each of +-0, +-1, +-inf and
    NaN (so each bound of +-0, +-1 or +-inf is met with either sign of a
    tie), and rows mixing them."""
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    rows = [rng.uniform(-2.0, 2.0, (n_random, n)), np.repeat(special, n).reshape(-1, n),
            rng.choice(special, (n_random, n))]
    return np.concatenate(rows)


SEPARABLE_PRODUCTS = {
    "box_ball_orthant": ((Box(-np.ones(2), np.ones(2)), Ball(np.zeros(2), 1.0),
                          NonnegativeOrthant(1)), (2, 2, 1)),
    "zero_bounds": ((Box(np.array([0.0]), np.array([1.0])), NonnegativeOrthant(None),
                     Box(np.array([-1.0, -0.0]), np.array([0.0, 0.0])),
                     Ball(np.array([0.0, -0.0]), 0.5), WholeSpace(None)), (1, 2, 2, 2, 1)),
    "separable_only": ((NonnegativeOrthant(1), WholeSpace(2), Box(np.zeros(1), np.zeros(1))),
                       (1, 2, 1)),
    "one_coordinate": ((NonnegativeOrthant(1),), (1,)),
    "no_separable": ((Ball(np.zeros(2), 1.0), Simplex(3)), (2, 3)),
}


@pytest.mark.parametrize("name", sorted(SEPARABLE_PRODUCTS))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN rows, as intended
def test_merged_clip_matches_per_factor_loop_bitwise(name):
    """One clip through the merged box, then the other factors, gives the
    per-factor loop's bits: signed zeros at zero bounds, +-inf and NaN rows
    included, as a C- or Fortran-ordered batch and point by point.  A row
    giving a ball or simplex factor an inf entry and no NaN raises."""
    parts, sizes = SEPARABLE_PRODUCTS[name]
    fset = CartesianProduct(parts, sizes)
    X = tie_rows(np.random.default_rng(SEED), fset.dim)
    infinite = np.zeros(len(X), dtype=bool)  # rows a ball or simplex factor rejects
    for part, sl in zip(parts, block_slices(sizes)):
        if isinstance(part, (Ball, Simplex)):
            infinite |= np.isinf(X[:, sl]).any(axis=-1) & ~np.isnan(X[:, sl]).any(axis=-1)
    for x in X[infinite]:
        with pytest.raises(InvalidParameters, match="no infinite coordinate"):
            fset.project(x)
    X = X[~infinite]
    ref = project_cartesian_per_factor(fset, X)
    assert bits(fset.project(X)) == bits(ref)
    assert bits(fset.project(np.asfortranarray(X))) == bits(ref)
    for x, row in zip(X, ref):
        assert bits(fset.project(x)) == bits(row)
    assert not np.shares_memory(fset.project(X), X)


@pytest.mark.parametrize("width", [1, 3])
def test_box_rows_match_single_points_on_ties(width):
    """A tie between a point and a signed-zero bound goes to the bound in
    every layout; ``ndarray.clip`` keeps the point when it loops over
    constant bounds, as it does over a (..., 1) batch."""
    box = Box(np.zeros(width), np.ones(width))
    column = lambda *v: np.repeat(np.array(v), width).reshape(-1, width)
    X = column(-0.0, 0.0, -1.0, 2.0, 1.0, np.nan)
    batch = box.project(X)
    assert bits(batch) == bits(column(0.0, 0.0, 0.0, 1.0, 1.0, np.nan))
    assert bits(box.project(np.asfortranarray(X))) == bits(batch)
    for x, row in zip(X, batch):
        assert bits(box.project(x)) == bits(row)


def hard_ball_rows(center, radius, rng, n_random=20000):
    """Offsets from ``center`` at scales from 1e-3 r to 1e3 r, then the
    centre, points on the sphere, subnormal offsets, offsets whose squared
    norm overflows and NaN entries, one beside an inf."""
    n = len(center)
    u = rng.standard_normal((n_random, n))
    d = u * (radius * 10.0 ** rng.uniform(-3, 3, (n_random, 1)))
    unit = u[:64] / np.linalg.norm(u[:64], axis=-1, keepdims=True)
    special = np.concatenate([
        np.zeros((1, n)), radius * unit, radius * np.eye(n), -radius * np.eye(n),
        5e-324 * np.sign(u[:8]), 1e-310 * u[:8], np.full((2, n), 1e200),
        1e160 * u[:8], np.diag(np.full(n, 1.5e154))])
    rows = center + np.concatenate([d, special])
    odd = np.tile(center, (2, 1))
    odd[0, 0] = np.nan
    odd[1, 0], odd[1, -1] = np.nan, np.inf
    return np.concatenate([rows, odd])


def infinite_ball_rows(center):
    """Points with +-inf entries and no NaN, which a ball rejects."""
    odd = np.tile(center, (4, 1))
    odd[0, 0], odd[1, -1] = np.inf, -np.inf
    odd[2] = np.inf
    odd[3, 0], odd[3, -1] = np.inf, -np.inf
    return odd


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("radius", [1e-300, 1e-8, 0.25, 2.0, 1e150])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN rows, as intended
def test_ball_factor_matches_where_reference_bitwise(radius):
    """``radius / fmax(nrm, radius)`` is the ``np.where`` factor bit for bit,
    NaN rows and overflowing norms included: alone and as a Cartesian
    factor, in a batch and point by point.  A row with an infinite entry and
    no NaN raises, in a batch and alone."""
    rng = np.random.default_rng(SEED)
    center = np.array([0.0, -0.0, 0.0]) if radius < 1e-7 else np.array([0.5, -0.25, 0.0])
    ball = Ball(center, radius)
    X = hard_ball_rows(center, radius, rng)
    ref = project_ball_where(X, center, radius)
    assert bits(ball.project(X)) == bits(ref)
    box = Box(-np.ones(2), np.ones(2))
    prod = CartesianProduct((box, ball), (2, 3))
    Y = np.concatenate([rng.uniform(-2.0, 2.0, (len(X), 2)), X], axis=1)
    out = prod.project(Y)
    assert bits(out[:, 2:]) == bits(ref) and bits(out[:, :2]) == bits(box.project(Y[:, :2]))
    singles = np.r_[0:len(X):97, len(X) - 300:len(X)]  # every special row
    for i in singles:
        assert bits(ball.project(X[i])) == bits(ref[i])
        assert bits(prod.project(Y[i])) == bits(out[i])
    for x in infinite_ball_rows(center):
        for fset, point in ((ball, x), (ball, np.stack([X[0], x])), (prod, np.r_[0.0, 0.0, x])):
            with pytest.raises(InvalidParameters, match="no infinite coordinate"):
                fset.project(point)


def test_ball_projects_overflowing_rows_onto_the_sphere():
    """A finite offset whose squared norm overflows lands on the sphere along
    its direction, not at the centre; a NaN row stays NaN and the other rows
    keep the bits they had when no row overflowed."""
    ball = Ball(center=[0.0, 0.0], radius=1.0)
    half = np.sqrt(0.5)
    X = np.array([[1e200, 1e200], [np.nan, 1.0], [0.3, -0.4], [3.0, 4.0],
                  [-1e300, 0.0], [1.5e154, -1.5e154]])
    with np.errstate(over="ignore"):
        np.testing.assert_allclose(ball.project([1e200, 1e200]), [half, half], rtol=1e-15)
        out = ball.project(X)
    np.testing.assert_allclose(out[[0, 4, 5]], [[half, half], [-1.0, 0.0], [half, -half]],
                               rtol=1e-15)
    assert np.isnan(out[1, 0]) and out[1, 1] == 1.0
    assert bits(out[2:4]) == bits(ball.project(X[2:4]))


def test_ball_projects_a_finite_point_whose_offset_overflows():
    """x - c overflows for a finite x far from a finite centre; the halved
    offset has its direction, so the point lands on the sphere: alone,
    beside a finite row and as a Cartesian factor, each batch row with the
    bits of its single-point projection."""
    ball = Ball([-1e308, 0.0], 1.0)
    prod = CartesianProduct((Box([-1.0], [1.0]), ball), (1, 2))
    X = np.array([[1e308, 0.0], [-1e308, 0.5], [1e308, 1e308]])
    Y = np.c_[[2.0, 0.0, -3.0], X]
    with np.errstate(over="ignore"):
        out, prod_out = ball.project(X), prod.project(Y)
        singles = [(ball.project(x), prod.project(y)) for x, y in zip(X, Y)]
    assert out[:2].tolist() == [[-1e308, 0.0], [-1e308, 0.5]]
    assert out[2, 0] == -1e308 and out[2, 1] == pytest.approx(1 / np.sqrt(5), rel=1e-15)
    assert bits(prod_out[:, 1:]) == bits(out) and prod_out[:, 0].tolist() == [1.0, 0.0, -1.0]
    for row, prod_row, (single, prod_single) in zip(out, prod_out, singles):
        assert bits(single) == bits(row) and bits(prod_single) == bits(prod_row)


@pytest.mark.parametrize("radius", [np.inf, np.nan, 0.0, -1.0])
def test_ball_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        Ball(np.zeros(2), radius)


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


def same_set(a, b):
    """Same class and equal constructor fields, arrays of the same dtype, a
    product's parts compared in turn."""
    if type(a) is not type(b):
        return False
    for f in (f for f in fields(a) if f.compare):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if f.name == "parts":
            if len(u) != len(v) or not all(map(same_set, u, v)):
                return False
        elif not (np.array_equal(u, v) and np.asarray(u).dtype == np.asarray(v).dtype):
            return False
    return True


def test_config_round_trip():
    A = np.random.default_rng(4).standard_normal((2, 5))  # the affine set's of all_sets
    documents = {
        "whole_space": {"variant": "whole_space", "dim": 4},
        "box": {"variant": "box", "lower": [-1.0] * 4, "upper": [1.0] * 4},
        "orthant": {"variant": "nonnegative_orthant", "dim": 4},
        "ball": {"variant": "ball", "center": [0.5, -0.5, 0.0], "radius": 2.0},
        "simplex": {"variant": "simplex", "dim": 5, "scale": 2.0},
        "halfspace": {"variant": "halfspace", "a": [1.0, -2.0, 0.5], "b": 1.5},
        "affine": {"variant": "affine", "A": A.tolist(), "b": [1.0, -0.3]},
        "cartesian": {"variant": "cartesian", "sizes": [2, 2, 2], "parts": [
            {"variant": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            {"variant": "nonnegative_orthant", "dim": 2},
            {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}]},
    }
    assert sorted(documents) == sorted(name for name, _, _ in all_sets())
    for name, fset, _ in all_sets():
        assert same_set(feasible_set_from_config(documents[name]), fset), name
    assert not same_set(feasible_set_from_config(documents["box"]),
                        Box(-np.ones(4), 2.0 * np.ones(4)))


def test_config_unknown_key_rejected():
    from stochvi.errors import ConfigError

    with pytest.raises(ConfigError):
        feasible_set_from_config({"variant": "box", "lower": [0], "upper": [1], "foo": 2})
