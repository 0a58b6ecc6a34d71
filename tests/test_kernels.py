"""The numeric kernels of ranking on their own."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import semvid
from semvid import kernels

from oracles import random_set


def test_directed_max_shapes_and_bounds():
    rng = np.random.default_rng(3)
    x, y = random_set(rng, 5, 4), random_set(rng, 3, 4)
    best_x, best_y = kernels.directed_max_cosines(x, y)
    assert best_x.shape == (5,) and best_y.shape == (3,)
    assert np.all(best_x <= 1.0 + 1e-12) and np.all(best_x >= -1.0 - 1e-12)


def _misaligned(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` whose data starts 8 bytes past an aligned base."""
    buffer = np.empty(array.size + 1, dtype=np.float64)
    out = buffer[1:].reshape(array.shape)
    out[...] = array
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 17, 300, 301])
@pytest.mark.parametrize("m", [None, 1, 2, 3, 7, 40])
def test_row_dots_gives_a_row_the_same_bits_wherever_it_sits(dim, m):
    # a row scored alone, inside a block, shuffled, from a misaligned base
    # and as a strided view: every layout must give the same bits, or a
    # video's score would depend on the rest of the corpus
    rng = np.random.default_rng(dim * 100 + (m or 0))
    n = 60
    rows = rng.standard_normal((n, dim))
    v = rng.standard_normal(dim if m is None else (m, dim))
    expected_shape = (n,) if m is None else (n, m)

    alone = np.stack([kernels.row_dots(rows[i : i + 1], v)[0] for i in range(n)])
    block = kernels.row_dots(rows, v)
    assert block.shape == expected_shape
    np.testing.assert_array_equal(block, alone)

    perm = rng.permutation(n)
    np.testing.assert_array_equal(kernels.row_dots(rows[perm], v), alone[perm])
    np.testing.assert_array_equal(kernels.row_dots(_misaligned(rows), v), alone)
    np.testing.assert_array_equal(kernels.row_dots(rows, _misaligned(v)), alone)
    strided = np.zeros((2 * n, dim))
    strided[1::2] = rows
    np.testing.assert_array_equal(kernels.row_dots(strided[1::2], v), alone)
    np.testing.assert_array_equal(kernels.row_dots(rows[7:19], v), alone[7:19])

    # within the floating-point bound dim * 2**-52 * sum |a_k b_k| of the
    # exact dot product
    points = [v] if m is None else list(v)
    for i in range(0, n, 7):
        for j, point in enumerate(points):
            products = [float(a) * float(b) for a, b in zip(rows[i], point)]
            got = alone[i] if m is None else alone[i, j]
            bound = dim * 2.0**-52 * math.fsum(map(abs, products))
            assert abs(got - math.fsum(products)) <= bound


def _reduction_sites(tree: ast.AST):
    """(line, text) of every einsum call and every sum over axis 1 (or -1)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum":
            yield node.lineno, ast.unparse(node)
        if name != "sum" or not isinstance(func, ast.Attribute):
            continue
        # np.sum(x, axis) takes the axis second, x.sum(axis) first
        module_call = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        position = 1 if module_call else 0
        if len(node.args) > position:
            axes.append(node.args[position])
        for axis in axes:
            try:
                value = ast.literal_eval(axis)
            except ValueError:
                continue
            if value in (1, -1):
                yield node.lineno, ast.unparse(node)


def test_row_reductions_live_only_in_kernels():
    # every float64 per-row score goes through kernels.row_dots, whose
    # reduction order does not depend on the row's position; a hand-written
    # multiply-and-sum elsewhere would need the same guarantee proved again
    package = Path(semvid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {text}" for line, text in _reduction_sites(tree)]
    assert found == []


def test_reduction_site_finder_sees_each_form():
    source = (
        "np.einsum('ij,j->i', a, b)\n"
        "(a * b).sum(axis=1)\n"
        "np.sum(a * b, axis=1, out=c)\n"
        "np.sum(a, 1)\n"
        "a.sum(-1)\n"
        "a.sum(axis=0)\n"
        "np.sum(a)\n"
    )
    assert [line for line, _ in _reduction_sites(ast.parse(source))] == [1, 2, 3, 4, 5]
