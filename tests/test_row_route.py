"""The row-batched oracle route against per-row oracle calls, bit for bit.

``problem.route(sl)(rngs, X, size, TX)`` draws row r of ``X`` on the r-th
generator of ``rngs``.  Handed generators keyed as ``derive_stream`` keys
them, each row must equal the oracle's own output for that row: T(x) plus
``block(..., error=True)`` on the exact path, the average of the drawn rows
on the per-draw path.  The keyer ``streams(seed)`` must yield, replication
by replication, the state ``derive_stream`` gives, and the route must make
exactly one oracle call per row with ``size`` as the fourth positional
argument (the instance counted), taking each generator only after the
previous row is drawn.
"""

from dataclasses import replace

import numpy as np
import pytest

from stochvi.core import derive_stream, streams
from stochvi.errors import InvalidParameters, OracleFailure
from stochvi.problems import (
    AdditiveGaussianOracle,
    gen_constant_noise,
    gen_linear_svi,
    gen_strongly_monotone,
)

PROBLEMS = {
    "additive": lambda: gen_strongly_monotone(5, seed=11, noise_scale=0.7, psd_scale=0.5),
    "linear": lambda: gen_linear_svi(5, seed=11, noise_scale=0.3),
    "constant": lambda: gen_constant_noise(sigma=1.3, n=5),
}
SEED, K, STAGE, BLOCK, SIZE = 2024, 6, 2, 1, 9
REPLICATIONS = (4, 0, 9)


def plain(problem):
    """The problem with its oracle behind a plain function: no ``block``, no
    ``exact_error``, so the route draws full rows and slices them."""
    oracle = problem.oracle
    return replace(problem, oracle=lambda rng, x, size: oracle(rng, x, size))


def keyed(replications):
    return [derive_stream(SEED, r, K, STAGE, BLOCK) for r in replications]


def state(rng):
    """A Philox generator's full state as plain Python values."""
    s = rng.bit_generator.state
    return ({k: v.tolist() for k, v in s["state"].items()}, s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def points(problem, R):
    rng = np.random.default_rng(R)
    return rng.standard_normal((R, problem.dimension))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("sl", [slice(None), slice(1, 4)], ids=["full", "block"])
@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("path", ["exact", "per_draw", "plain"])
def test_route_equals_per_row_oracle_calls_bitwise(name, sl, R, path):
    problem = PROBLEMS[name]()
    if path == "plain":
        problem = plain(problem)
    X = points(problem, R)
    TX = problem.mean_operator(X) if path == "exact" else None
    replications = REPLICATIONS[:R]
    out = problem.route(sl)(streams(SEED)(replications, K, STAGE, BLOCK), X, SIZE, TX)
    oracle, ref = problem.oracle, []
    for x, t, rng in zip(X, TX if TX is not None else X, keyed(replications)):
        if path == "exact":
            ref.append(t[sl] + oracle.block(rng, x, SIZE, sl, error=True))
        elif path == "per_draw":
            ref.append(oracle.block(rng, x, SIZE, sl).mean(axis=0))
        else:
            ref.append(oracle(rng, x, SIZE)[:, sl].mean(axis=0))
    assert out.shape == (R, len(range(problem.dimension)[sl]))
    assert out.tobytes() == np.array(ref).tobytes()
    # the one-row form gives each row alone
    for r, rng in enumerate(keyed(replications)):
        one = problem.route(sl)([rng], X[r:r + 1], SIZE, None if TX is None else TX[r:r + 1])
        assert one.tobytes() == out[r:r + 1].tobytes()


@pytest.mark.parametrize("seed", [SEED, -2 ** 63, 2 ** 63 - 1])
@pytest.mark.parametrize("R", [1, 3])
def test_stream_rows_yield_derive_stream_states(seed, R):
    keyed = streams(seed)
    replications = REPLICATIONS[:R]
    for replication, rng in zip(replications, keyed(replications, K, STAGE, BLOCK),
                                strict=True):
        ref = derive_stream(seed, replication, K, STAGE, BLOCK)
        assert state(rng) == state(ref)
        assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
    # a nonzero sample is a key field too
    for replication, rng in zip(replications, keyed(replications, K, STAGE, BLOCK, 7),
                                strict=True):
        assert state(rng) == state(derive_stream(seed, replication, K, STAGE, BLOCK, 7))


@pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 99999999999999999999])
def test_seed_outside_int64_is_rejected(seed):
    with pytest.raises(InvalidParameters, match="signed 64-bit"):
        derive_stream(seed)
    with pytest.raises(InvalidParameters, match="signed 64-bit"):
        streams(seed)


@pytest.mark.parametrize("sl", [slice(None), slice(1, 4)], ids=["full", "block"])
@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "per_draw"])
def test_one_oracle_call_per_row_taken_in_turn(monkeypatch, sl, R, exact):
    """Each row is one call of the oracle's ``__call__`` or ``block``, whose
    fourth positional argument (the instance counted) is ``size``; row r's
    generator is taken only after row r-1's call returns."""
    problem = PROBLEMS["additive"]()
    events, depth = [], [0]
    for method in ("__call__", "block"):
        original = getattr(AdditiveGaussianOracle, method)

        def counted(*args, _original=original, **kwargs):
            if not depth[0]:  # __call__ draws through block: one call, as a tracer bills it
                events.append(("call", args[3], kwargs))
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(AdditiveGaussianOracle, method, counted)

    def rngs():
        for r, rng in enumerate(keyed(REPLICATIONS[:R])):
            events.append(("take", r))
            yield rng

    X = points(problem, R)
    route = problem.route(sl)
    route(rngs(), X, SIZE, problem.mean_operator(X) if exact else None)
    kwargs = {"error": True} if exact else {}
    assert events == [e for r in range(R) for e in (("take", r), ("call", SIZE, kwargs))]


def test_error_rows_of_another_shape_raise():
    """The stacked errors are checked once: rows of the wrong width, or of
    unequal widths, raise ``OracleFailure``."""

    class Ragged:
        exact_error = True

        def __call__(self, rng, x, size):
            return np.zeros((size, len(x)))

        def block(self, rng, x, size, sl, error=False):
            return np.zeros(int(x[0]))

    problem = replace(PROBLEMS["additive"](), oracle=Ragged())
    route, TX = problem.route(), np.zeros((2, 5))
    with pytest.raises(OracleFailure, match=r"have shape \(2, 3\), expected \(2, 5\)"):
        route([None, None], np.full((2, 5), 3.0), SIZE, TX)
    with pytest.raises(OracleFailure, match=r"do not stack to shape \(2, 5\)"):
        route([None, None], np.array([[5.0] * 5, [4.0] * 5]), SIZE, TX)
