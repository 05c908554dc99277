"""Row-wise products come from numpy's stacked gufuncs.

``np.vecdot``, ``np.matvec`` and ``np.vecmat`` give each row of a batch its
single-point product bit for bit, as the stacked ``[..., None]`` products of
``reference_impls`` do; the package writes every row-wise product with them,
and single-point inner products too, since ``np.dot`` (a BLAS call) need not
round as a row of ``np.vecdot`` does.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from reference_impls import (
    inner_stacked,
    matvec_stacked,
    project_affine_stacked,
    project_halfspace_stacked,
    vecmat_stacked,
)
from stochvi.merit import anchor, natural_residual_sq
from stochvi.problems import gen_linear_svi, gen_scaled_monotone, gen_strongly_monotone
from stochvi.projection import AffineSubspace, Ball, Halfspace

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochvi"


@pytest.mark.parametrize("batch", [(), (7,), (3, 4)], ids=["point", "rows", "grid"])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 64, 200])
def test_gufuncs_equal_stacked_products_bitwise(n, batch):
    rng = np.random.default_rng(1000 * n + len(batch))
    m = (n + 1) // 2
    A, B = rng.standard_normal((n, n)), rng.standard_normal((m, n))
    X, Y = 3.0 * rng.standard_normal(batch + (n,)), rng.standard_normal(batch + (n,))
    W = rng.standard_normal(batch + (m,))
    same = np.testing.assert_array_equal
    same(np.vecdot(X, Y), inner_stacked(X, Y))
    same(np.vecdot(X, Y[(0,) * len(batch)]), inner_stacked(X, Y[(0,) * len(batch)]))
    same(np.matvec(A, X), matvec_stacked(A, X))
    same(np.matvec(B, X), matvec_stacked(B, X))
    same(np.vecmat(W, B), vecmat_stacked(W, B))
    # the package's own row-wise products
    for p in (gen_strongly_monotone(n, seed=4, psd_scale=0.5, skew_scale=0.3),
              gen_linear_svi(n, seed=4)):
        same(p.mean_operator(X), matvec_stacked(p.mean_matrix, X - anchor(p)))
    p = gen_scaled_monotone(n, seed=4)
    same(p.mean_operator(X),
         matvec_stacked(p.mean_matrix, X) / (1.0 + inner_stacked(X, X))[..., None])
    a = rng.standard_normal(n) + 0.1
    same(Halfspace(a, 0.5).project(X), project_halfspace_stacked(a, 0.5, X))
    b = rng.standard_normal(m)
    same(AffineSubspace(B, b).project(X), project_affine_stacked(B, b, X))
    ball = Ball(np.zeros(n), 1.0)
    diff = X - ball.project(X - 0.3 * p.mean_operator(X))
    same(natural_residual_sq(p.mean_operator, ball, X, 0.3), inner_stacked(diff, diff))


def stacked_products(source):
    """Lines of ``source`` that apply ``@`` (or ``np.matmul``) to an operand
    subscripted with ``None``, call ``dot``, or define a name ``inner``."""
    def expanded(node):
        return isinstance(node, ast.Subscript) and any(
            isinstance(e, ast.Constant) and e.value is None for e in ast.walk(node.slice))

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            hit = expanded(node.left) or expanded(node.right)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            hit = name == "dot" or name == "matmul" and any(map(expanded, node.args))
        elif isinstance(node, ast.FunctionDef):
            hit = node.name == "inner"
        elif isinstance(node, ast.Assign):
            hit = any(getattr(t, "id", None) == "inner" for t in node.targets)
        else:
            hit = False
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_stacks_products_by_hand():
    found = {path.name: stacked_products(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "T = lambda x, A=a: (A @ np.asarray(x, dtype=float)[..., None])[..., 0]",
    "r = (x[..., None, :] @ A.T)[..., 0, :]",
    "r = np.matmul(A, x[..., None])",
    "def inner(a, b):\n    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]",
    "inner = np.vecdot",
    "spread = scale * math.sqrt(float(np.dot(x, x)) / size)",
    "r = x.dot(y)",
])
def test_scan_flags_the_stacked_idiom(source):
    assert stacked_products(source)


def test_scan_passes_the_gufuncs():
    assert not stacked_products(
        "T = lambda x: np.matvec(A, x) / (1.0 + np.vecdot(x, x))[..., None]\n"
        "y = np.linalg.solve(c, r[..., None])\n"
        "z = A @ x\n")
