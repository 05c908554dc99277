"""Independently coded references used as oracles by the tests.

These deliberately avoid the library's solver and projection internals so
that agreement between the two routes is meaningful.
"""

import functools
import itertools
import math

import numpy as np


def korpelevich_reference(T, project_fn, x0, alpha, iterations):
    """Plain deterministic extragradient recursion, one iterate per row."""
    x = np.array(x0, dtype=float)
    out = [x.copy()]
    for _ in range(iterations):
        z = project_fn(x - alpha * T(x))
        x = project_fn(x - alpha * T(z))
        out.append(x.copy())
    return np.array(out)


def project_ball_where(x, center, radius):
    """Ball projection with the factor r / max(||d||, 1e-300) where
    ||d|| > r and 1.0 elsewhere (a NaN norm compares false, so 1.0).  A
    finite row whose squared norm overflows takes ||d|| from ``np.hypot``."""
    d = np.asarray(x, dtype=float) - center
    nrm = np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True))
    overflowed = (nrm == np.inf) & np.all(np.abs(d) < np.inf, axis=-1, keepdims=True)
    nrm = np.where(overflowed, np.hypot.reduce(d, axis=-1, keepdims=True), nrm)
    return center + d * np.where(nrm > radius, radius / np.maximum(nrm, 1e-300), 1.0)


def project_simplex_bruteforce(x, scale=1.0):
    """Projection onto {y >= 0, sum y = scale} by active-set enumeration.

    For every candidate support S, the equality-constrained minimizer sets
    y_i = x_i - tau on S with tau = (sum_S x_i - scale)/|S|; keep candidates
    that are feasible and KKT-consistent, return the closest.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    best, best_d = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            tau = (x[s].sum() - scale) / len(s)
            y = np.zeros(n)
            y[s] = x[s] - tau
            if np.any(y[s] < -1e-12):
                continue
            d = float(np.sum((y - x) ** 2))
            if d < best_d - 1e-15:
                best, best_d = y, d
    return best


def quadratic_gap_bruteforce(T_x, x, lower, upper, a, grid=401):
    """max over a box of <T(x), x-y> - a/2 ||x-y||^2 by dense grid search
    (2-d only); used to confirm the closed-form regularized gap."""
    g0 = np.linspace(lower[0], upper[0], grid)
    g1 = np.linspace(lower[1], upper[1], grid)
    best = -np.inf
    for y0 in g0:
        d0 = x[0] - y0
        vals = T_x[0] * d0 + T_x[1] * (x[1] - g1) - 0.5 * a * (d0 ** 2 + (x[1] - g1) ** 2)
        best = max(best, float(vals.max()))
    return best


def sample_count(theta, mu, a, b, k):
    """N_k = ceil(theta (k+mu)^(1+a) ln(k+mu)^(1+b)), at least 1, in scalar
    float arithmetic; a value within a relative 1e-9 of an integer counts as
    that integer."""
    v = theta * (k + mu) ** (1 + a) * math.log(k + mu) ** (1 + b)
    n = round(v)
    if abs(v - n) <= 1e-9 * max(1.0, abs(n)):
        return max(float(n), 1.0)
    return max(float(math.ceil(v)), 1.0)


def tail_scan(agents, horizon=10 ** 6, window=10, tol=1e-6):
    """Numeric summability scan: tabulate 1/N_k = sum_i 1/N_{k,i} for every
    k <= horizon (float counts, so nothing wraps) and accept when the last
    ``window`` indices add at most ``tol * max(1, total)``.

    ``agents`` is a list of (theta, mu, a, b) tuples.
    """
    k = np.arange(horizon + 1, dtype=float)
    columns = {}
    inv = np.zeros(horizon + 1)
    for agent in agents:
        if agent not in columns:
            theta, mu, a, b = agent
            v = theta * (k + mu) ** (1 + a) * np.log(k + mu) ** (1 + b)
            near = np.round(v)
            n = np.where(np.abs(v - near) <= 1e-9 * np.maximum(1.0, near), near, np.ceil(v))
            columns[agent] = 1.0 / np.maximum(n, 1.0)
        inv += columns[agent]
    total = float(inv.sum())
    return float(inv[horizon - window:].sum()) <= tol * max(1.0, total)


def fejer_audit_reference(trace, x_star, rel_tol=1e-9):
    """The quasi-Fejer audit one step at a time, as a Python loop over the
    recorded trace; returns (max_violation, max_rel_violation, violations)."""
    x_star = np.asarray(x_star, dtype=float)
    max_viol = max_rel = 0.0
    n_bad = 0
    d2 = np.sum((trace.iterates - x_star) ** 2, axis=1)
    for k in range(trace.n_steps):
        alpha = trace.alphas[k]
        rho_k = 1.0 - 6.0 * (trace.lipschitz_L * alpha) ** 2
        dM = 2.0 * alpha * float((x_star - trace.z[k]) @ trace.eps2[k])
        dA = trace.A[k + 1] - trace.A[k]
        rhs = d2[k] - 0.5 * rho_k * trace.r2[k] + dM + dA
        viol = d2[k + 1] - rhs
        rel = viol / max(1.0, abs(rhs))
        if rel > max_rel:
            max_rel, max_viol = rel, viol
        if rel > rel_tol:
            n_bad += 1
    return max_viol, max_rel, n_bad


def diagnostic_sums_reference(trace, solution_set):
    """A and M of a diagnostics trace, one step at a time from its recorded
    errors, as the recursions in the ``stochvi.solver`` docstring read, M at
    the point of ``solution_set`` nearest the origin."""
    K = trace.n_steps
    xstar = solution_set.project(np.zeros(trace.iterates.shape[1]))
    A, M = np.zeros(K + 1), np.zeros(K + 1)
    for k in range(K):
        alpha = float(trace.alphas[k])
        rho_k = 1.0 - 6.0 * (trace.lipschitz_L * alpha) ** 2
        A[k + 1] = A[k] + (8.0 + rho_k) * alpha ** 2 * float(trace.eps1_norm[k]) ** 2 \
            + 8.0 * alpha ** 2 * float(trace.eps2_norm[k]) ** 2
        M[k + 1] = M[k] + 2.0 * alpha * float((xstar - trace.z[k]) @ trace.eps2[k])
    return A, M


def project_cartesian_per_factor(fset, x):
    """A Cartesian product's projection as one projection per factor, each
    on its own slice of the coordinates."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    start = 0
    for part, size in zip(fset.parts, fset.sizes):
        sl = slice(start, start + size)
        out[..., sl] = part.project(x[..., sl])
        start += size
    return out


def error_decay_rows_reference(problem, x, n_grid, replications, master_seed):
    """Rows of ``error_decay_probe``, each batch a fresh ``derive_stream``
    generator keyed (master_seed, r, j, 1) and averaged draw by draw."""
    from stochvi.core import derive_stream

    x = np.asarray(x, dtype=float)
    rows = []
    for j, n in enumerate(n_grid):
        sq = np.empty(replications)
        for r in range(replications):
            rng = derive_stream(master_seed, replication=r, iteration=j, stage=1)
            err = problem.oracle(rng, x, n).mean(axis=0) - problem.mean_operator(x)
            sq[r] = float(err @ err)
        mean_sq = float(np.mean(sq))
        rows.append({"N": n, "mean_sq_error": mean_sq,
                     "stderr": float(np.std(sq, ddof=1) / math.sqrt(replications)),
                     "product": n * mean_sq})
    return rows


def variance_scaling_rows_reference(K_list, sigma, L, replications, master_seed):
    """Rows of ``variance_scaling_probe``: replication r at the j-th horizon
    draws its K normals from ``derive_stream`` keyed (master_seed + j, r)."""
    from stochvi.baselines import MirrorProxSchedule
    from stochvi.core import derive_stream

    rows = []
    for j, K in enumerate(K_list):
        sched = MirrorProxSchedule.build(K, sigma, L)
        draws = [sigma * derive_stream(master_seed + j, replication=r)
                 .standard_normal(K) for r in range(replications)]
        z = np.array([0.0 - float(sched.alphas @ d) for d in draws])
        zbar = np.array([0.0 - float(sched.avg_coeffs @ d) for d in draws])
        rows.append({"K": K,
                     "var_zK_emp": float(np.var(z, ddof=1)),
                     "var_zK_exact": sigma ** 2 * sched.terminal_var_coeff,
                     "var_zbar_emp": float(np.var(zbar, ddof=1)),
                     "var_zbar_exact": sigma ** 2 * sched.average_var_coeff})
    return rows


def surrogate_rows_reference(problem, X, n_samples, master_seed):
    """The batch-mean surrogate of ``harness.effective_mean_operator`` row by
    row: the draw average on ``derive_stream`` keyed (master_seed, sample=h),
    h the first four bytes of the row's SHA-256 read little-endian."""
    import hashlib

    from stochvi.core import derive_stream

    out = []
    for x in np.asarray(X, dtype=float):
        h = int.from_bytes(hashlib.sha256(x.tobytes()).digest()[:4], "little")
        rng = derive_stream(master_seed, sample=h)
        out.append(problem.oracle(rng, x, n_samples).mean(axis=0))
    return np.array(out)


def inner_stacked(a, b):
    """Row-wise inner products over the last axis written as a stack of
    (1, n) @ (n, 1) products: each row is the 1-D ``a @ b`` bit for bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec_stacked(A, X):
    """Row-wise ``A @ x`` written as a stack of (m, n) @ (n, 1) products."""
    return (A @ np.asarray(X, dtype=float)[..., None])[..., 0]


def vecmat_stacked(y, A):
    """Row-wise ``y @ A`` written as a stack of (1, m) @ (m, n) products."""
    return (np.asarray(y, dtype=float)[..., None, :] @ A)[..., 0, :]


def project_halfspace_stacked(a, b, x):
    """Projection onto { y : <a, y> <= b } with the stacked inner product."""
    viol = (inner_stacked(x, a) - b) / (a @ a)
    return x - np.maximum(viol, 0.0)[..., None] * a


def project_affine_stacked(A, b, x):
    """Projection onto { y : A y = b } with stacked products through the QR
    factor A^T = Q R: x - Q Q^T (x - p) with p = Q R^-T b."""
    q, r = np.linalg.qr(A.T)
    p = matvec_stacked(q, np.linalg.solve(r.T, b))
    return x - matvec_stacked(q, vecmat_stacked(x - p, q))


def write_rows_reference(path, rows):
    """CSV of a list of homogeneous dicts, one line per dict: floats as
    ``repr(float(v))``, anything else by ``str``."""
    header = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(
                repr(float(r[h])) if isinstance(r[h], float) else str(r[h])
                for h in header) + "\n")


def serial_stepper_reference(plan):
    """One replication's iteration k as the serial engine advanced it:
    ``advance(replication, k, x, t=None) -> (z, g1, g2, x_next, t, tz)``,
    every draw set of a stage on its own stream and billed N_{k,i} calls."""
    from stochvi.core import streams
    from stochvi.errors import OracleFailure

    problem, rows, alphas = plan.problem, plan.rows, plan.alphas
    T = problem.mean_operator
    keyed, proj = streams(plan.config.master_seed), problem.feasible_set.project
    sets = tuple((i, sl, problem.route(sl)) for i, sl in plan.draw_sets)

    def stage_mean(replication, k, stage, point, t):
        mean = np.empty(problem.dimension)
        for (i, sl, route), size in zip(sets, rows[k]):
            mean[sl] = route(keyed([replication], k, stage, i), point[None], size,
                             None if t is None else t[None])[0]
        if not np.all(np.isfinite(mean)):
            raise OracleFailure(
                f"oracle average is not finite at iteration {k}, stage {stage}")
        return mean

    def advance(replication, k, x, t=None):
        alpha = alphas[k]
        if t is None and T is not None:
            t = T(x)
        g1 = stage_mean(replication, k, 1, x, t)
        z = proj(x - alpha * g1)
        tz = None if T is None else T(z)
        g2 = stage_mean(replication, k, 2, z, tz)
        return z, g1, g2, proj(x - alpha * g2), t, tz

    return advance


def _pow2(v):
    return np.float_power(v, 2)


def record_diagnostics_reference(trace, steps, solution_set):
    """The realized errors and the A and M sums from each step's (z, g1, g2,
    T(x^k), T(z^k)), as the serial engine recorded them, M at the point of
    ``solution_set`` nearest the origin (None without a solution set)."""
    z, g1, g2, t, tz = steps.swapaxes(0, 1)
    e1, e2 = g1 - t, g2 - tz
    alpha = trace.alphas
    rho = 1.0 - 6.0 * _pow2(trace.lipschitz_L * alpha)
    trace.z, trace.eps2 = z, e2
    trace.eps1_norm, trace.eps2_norm = np.sqrt(np.vecdot(e1, e1)), np.sqrt(np.vecdot(e2, e2))
    dA = np.zeros(2 * len(alpha) + 1)
    dA[1::2] = (8.0 + rho) * _pow2(alpha) * _pow2(trace.eps1_norm)
    dA[2::2] = 8.0 * _pow2(alpha) * _pow2(trace.eps2_norm)
    trace.A = np.cumsum(dA)[::2]
    if solution_set is not None:
        dM = np.zeros(len(alpha) + 1)
        dM[1:] = 2.0 * alpha * np.vecdot(solution_set.project(np.zeros(z.shape[1])) - z, e2)
        trace.M = np.cumsum(dM)


def serial_run_reference(plan, replication=0, x0=None):
    """One replication run by itself, one iteration after another: the
    serial engine the lockstep ensemble must equal bit for bit."""
    from stochvi.errors import DimensionMismatch
    from stochvi.merit import distance_sq_to_solutions, natural_residual_sq
    from stochvi.solver import RunTrace

    problem, config = plan.problem, plan.config
    n, K = problem.dimension, config.max_iterations
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},)")
    T, fset, floor, alphas = (problem.mean_operator, problem.feasible_set,
                              config.residual_floor, plan.alphas)
    advance = serial_stepper_reference(plan)
    record = config.diagnostics and T is not None
    x = fset.project(x)
    iterates, r2, steps = [x], [], []
    stopped, t = False, None
    for k in range(K + 1):
        if T is not None:
            t = T(x)
            r2.append(natural_residual_sq(T, fset, x, alphas[k], t=t))
            stopped = bool(k < K and r2[-1] <= floor)
        if k == K or stopped:
            break
        z, g1, g2, x, t, tz = advance(replication, k, x, t)
        if record:
            steps.append((z, g1, g2, t, tz))
        iterates.append(x)

    iterates = np.array(iterates)
    n_steps = len(iterates) - 1
    trace = RunTrace(
        iterates=iterates,
        r2=np.array(r2) if T is not None else None,
        dist2=None if problem.solution_set is None
        else distance_sq_to_solutions(problem, iterates),
        cum_calls=plan.cum_calls[:n_steps + 1].copy(),
        alphas=np.array(alphas[:n_steps]),
        replication=replication,
        lipschitz_L=problem.lipschitz_L,
        stopped_early=stopped,
    )
    if record:
        record_diagnostics_reference(
            trace, np.array(steps, dtype=float).reshape(n_steps, 5, n),
            problem.solution_set)
    return trace


def carry_forward_statistics_reference(traces, T, fset, K, dgap=None):
    """(mean_r2, stderr_r2, mean_dist2, mean_dgap) of an ensemble's traces
    as the harness aggregated them from the traces alone: each trace's
    values held at its final one up to K and stacked row by row, with one
    ``d_gap`` call per trace.  ``dgap`` is the pair (a, b), or None."""
    from stochvi.merit import d_gap

    R = len(traces)

    def stacked(per_trace):
        return np.stack([v[np.minimum(np.arange(K + 1), len(v) - 1)] for v in per_trace])

    mean_r2 = stderr_r2 = mean_dist2 = mean_dgap = None
    if traces[0].r2 is not None:
        stack = stacked(t.r2 for t in traces)
        mean_r2 = stack.mean(axis=0)
        stderr_r2 = stack.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(K + 1)
    if traces[0].dist2 is not None:
        mean_dist2 = stacked(t.dist2 for t in traces).mean(axis=0)
    if dgap is not None:
        mean_dgap = stacked(d_gap(T, fset, t.iterates, *dgap) for t in traces).mean(axis=0)
    return mean_r2, stderr_r2, mean_dist2, mean_dgap


def reciprocal_reference(*powers, scale=1.0):
    """``scale / prod(base ** e)`` left to right over ``(base, e)`` pairs, as
    the schedule tail bounds and the base family's coefficients were written
    before one helper took every product of powers, with no fallback: a
    power past the float range raises ``OverflowError`` and a product that
    underflows to 0 ``ZeroDivisionError``."""
    return scale / math.prod(base ** e for base, e in powers)


def tail_bounds_reference(schedule, k):
    """(sum_i B_i(k), (sum_i sqrt(B2_i(k)))^2): a schedule's integral-test
    bounds on the tails of 1/N_k and 1/N_k^2, agent by agent."""
    total = root = 0.0
    for ag in schedule.agents:
        t, p = k + ag.mu, 1.0 + 2.0 * ag.a
        total += (reciprocal_reference((ag.theta, 1), (ag.a, 1), (t, ag.a)) if ag.a > 0 else
                  reciprocal_reference((ag.theta, 1), (ag.b, 1), (math.log(t), ag.b)))
        root += math.sqrt(reciprocal_reference((ag.theta, 2), (p, 1), (t, p),
                                               (math.log(t), 2.0 + 2.0 * ag.b)))
    return total, root ** 2


def burn_in_reference(inputs, inv, horizon):
    """(closed form, numeric index) of the burn-in k0 as written before one
    helper took every product of powers, without the two guards of its
    closed forms; the numeric index is the least k with
    sum_(j >= k) 1/N_j <= phi / D, searched past the head ``inv`` by
    bisection on the integral bound."""
    D = 2.0 * inputs.c_remainder * inputs.alpha ** 2 * inputs.c2 ** 2 * inputs.sigma ** 2
    if D == 0.0:
        return 0, 0
    threshold, schedule, eps = inputs.phi / D, inputs.schedule, np.finfo(float).eps
    ag0, closed = schedule.agents[0], None
    if all(a.a == 0 for a in schedule.agents) and inputs.m == 1:
        expo = (2.0 * inputs.c_remainder * inputs.c2 ** 2 * inputs.alpha ** 2
                * inputs.sigma ** 2 / (inputs.phi * ag0.b * ag0.theta)) ** (1.0 / ag0.b)
        expo *= 1.0 + 16.0 * eps
        closed = max(0, math.ceil(math.exp(expo) - ag0.mu + 1.0))
    elif all(a.a > 0 for a in schedule.agents):
        m = len(schedule.agents)
        closed = max(0, math.ceil(math.e - min(a.mu for a in schedule.agents)))
        for ag in schedule.agents:
            base = (m * D / (inputs.phi * ag.theta * ag.a)) ** (1.0 / ag.a)
            base *= 1.0 + 16.0 * eps * (m + 1.0 / ag.a)
            closed = max(closed, math.ceil(base - ag.mu + 1.0))
    suffix = np.cumsum(inv[::-1])[::-1] + tail_bounds_reference(schedule, horizon)[0]
    ok = np.nonzero(suffix <= threshold)[0]
    if ok.size:
        return closed, int(ok[0])
    lo, hi = horizon, max(2 * horizon, 4)
    while not tail_bounds_reference(schedule, hi - 1)[0] <= threshold:
        lo, hi = hi, 4 * hi
        if hi > 1e300:
            return closed, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail_bounds_reference(schedule, mid - 1)[0] <= threshold \
            else (mid, hi)
    return closed, hi


def bound_family_reference(tail, J, P, law, *, rho, d0, eps, divisor=1.0,
                           coeffs=(None, None)):
    """One family's fields as ``constants._bound_family`` wrote them before
    one helper took every product of powers, without its guard."""
    nu, prefactor, log_power, offset = law
    two = 2.0 / rho
    if nu == 2.0:
        I = (12.0 / rho ** 2 * d0 ** 4
             + 12.0 / rho ** 2 * tail ** 2 / divisor ** 2 * (1.0 + J) ** 2 + 1.0)
    else:
        I = 4.0 * 3.0 ** (nu - 1.0) * (two ** nu * d0 ** (2.0 * nu)
                                       + two ** nu * (tail / divisor) ** nu
                                       * (1.0 + J) ** nu + 1.0)
    bound = prefactor * I * (math.log(P / eps) ** log_power + offset) / eps ** nu
    return {"rate_Q": two * d0 ** 2 + two * tail / divisor * (1.0 + J), "log_arg_P": P,
            "complexity_I": I, "complexity_bound": bound,
            "tail_coeff_A": coeffs[0], "tail_coeff_B": coeffs[1]}


def bounds_report_reference(inputs, eps, horizon):
    """``constants.rate_and_complexity_bounds(inputs, eps, horizon=horizon)
    .as_dict()`` as written before one helper took every product of powers,
    without a guard, for inputs that carry J: on inputs where no power
    leaves the float range the two agree bit for bit."""
    rho = 1.0 - 6.0 * (inputs.L * inputs.alpha) ** 2
    D = 2.0 * inputs.c_remainder * inputs.alpha ** 2 * inputs.c2 ** 2 * inputs.sigma ** 2
    schedule, J, d0, sigma = inputs.schedule, inputs.J, inputs.d0, inputs.sigma
    inv, min_inv = schedule.inverse_series(np.arange(horizon + 1))
    closed, numeric = burn_in_reference(inputs, inv, horizon)
    tail, tail_sq = tail_bounds_reference(schedule, horizon)
    a0, b0 = float(np.sum(inv)) + tail, float(np.sum(inv ** 2)) + tail_sq
    Q_inf = 2.0 / rho * (d0 ** 2 + (1.0 + J) * (D * a0 + D ** 2 * b0))
    P = Q_inf + 1.0
    family = functools.partial(bound_family_reference, rho=rho, d0=d0, eps=eps)
    none = dict.fromkeys(("rate_Q", "log_arg_P", "complexity_I", "complexity_bound",
                          "tail_coeff_A", "tail_coeff_B"))
    lam = 2.0 * inputs.c_remainder * inputs.alpha ** 2 * inputs.c2 ** 2
    ag, agents = schedule.agents[0], schedule.agents
    lg = math.log(ag.mu - 1.0)

    base = {**none, "log_arg_P": P}
    if inputs.m == 1 and ag.a == 0:
        A = reciprocal_reference((ag.b, 1), (lg, ag.b), scale=lam)
        e = 1.0 + 2.0 * ag.b
        B = reciprocal_reference((ag.mu - 1.0, 1), (e, 1), (lg, e), scale=lam ** 2)
        law = (2.0, max(1.0, ag.theta ** -4) * max(1.0, ag.theta), 1.0 + ag.b, 1.0 / ag.mu)
        base = family(sigma ** 2 * A + sigma ** 4 * B, J, P, law, coeffs=(A, B))

    uniform = none
    if inputs.m == 1:
        tail = 17.0 * inputs.c2 ** 2 * inputs.alpha ** 2 * sigma ** 2
        sum_min = float(np.sum(min_inv)) + tail_bounds_reference(schedule, horizon)[0]
        uniform = {**none, "log_arg_P": 2.0 / rho * (d0 ** 2 + tail * sum_min) + 1.0}
        if ag.a == 0:
            law = (2.0, max(1.0, ag.theta ** -2) * max(1.0, ag.theta), 1.0 + ag.b, 1.0 / ag.mu)
            uniform = family(tail, 0.0, uniform["log_arg_P"], law, divisor=ag.b * lg ** ag.b)

    network = none
    b_lo = min(a.b for a in agents)
    if all(a.a > 0 for a in agents) and len({a.a for a in agents}) == 1 and b_lo > -0.5:
        mu_lo = min(a.mu for a in agents)
        lg_lo = math.log(mu_lo - 1.0)
        A = sum(lam / (a.theta * a.a * (a.mu - 1.0) ** a.a) for a in agents)
        vartheta = (1.0 + 2.0 * b_lo) * (mu_lo - 1.0) ** (1.0 + 2.0 * ag.a) * lg_lo
        B = sum(lam / (a.theta * lg_lo ** a.b) for a in agents) ** 2 / vartheta
        law = (2.0 + ag.a, inputs.S * max(max(a.theta for a in agents), 1.0),
               1.0 + max(a.b for a in agents), 0.0)
        network = family(sigma ** 2 * A + sigma ** 4 * B, J, P, law, coeffs=(A, B))

    return {"eps": eps, "rho": rho, "trajectory_bound": J, "tail_sum": a0, "tail_sum_sq": b0,
            "rate_Q_inf": Q_inf, "base": base, "uniform": uniform, "network": network,
            "burn_in_closed_form": closed, "burn_in_numeric": numeric}
