"""The per-exponent dlog basis and the Gauss-Jordan inverse, kept as test oracles.

The package builds one compressed dlog table per coefficient field, with
coefficients delta_k lam^k from a single division over F_p, serves every
exponent m' from it, and inverts the coherent basis matrix as a Vandermonde
matrix by Lagrange interpolation.  The versions here are the ones that came
before: the basis tuples are Frobenius images of the powers of the subfield
generator, each exponent m' gets its own compressed series E(lam v) from
``epsilon_series`` divided by ``dlog_truncated`` over the tensor ring, and
the component matrix is inverted by Gauss-Jordan elimination.  Of the
package they use only the finite fields, the tensor ring and those two
public series functions.
"""

from typing import Dict, List, Tuple

from serreweights.errors import InternalInvariantViolation
from serreweights.series_oracle import (
    LaurentElement,
    TensorAlgebra,
    dlog_truncated,
    epsilon_series,
)


def coherent_basis(fq, n: int) -> Tuple[Tuple[bytes, ...], ...]:
    """Tuple t has component i equal to Frob^((n - i) mod n)(g^t)."""
    gen = fq.subfield_generator(n)
    basis = []
    g_power = fq.one
    for _ in range(n):
        basis.append(tuple(fq.frobenius(g_power, (n - i) % n) for i in range(n)))
        g_power = fq.mul(g_power, gen)
    return tuple(basis)


def component_matrix(basis) -> List[List[bytes]]:
    """Row i, column t: component i of basis tuple t."""
    n = len(basis)
    return [[basis[t][i] for t in range(n)] for i in range(n)]


def matrix_inverse(fq, matrix) -> Tuple[Tuple[bytes, ...], ...]:
    """Gauss-Jordan elimination on the matrix augmented by the identity."""
    n = len(matrix)
    work = [list(row) + [fq.one if i == j else fq.zero for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(
            (row for row in range(col, n) if work[row][col] != fq.zero), None
        )
        if pivot is None:
            raise InternalInvariantViolation("coherent basis matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = fq.inv(work[col][col])
        work[col] = [fq.mul(inv, x) for x in work[col]]
        for row in range(n):
            if row != col and work[row][col] != fq.zero:
                factor = work[row][col]
                work[row] = [
                    fq.sub(x, fq.mul(factor, y))
                    for x, y in zip(work[row], work[col])
                ]
    return tuple(tuple(row[n:]) for row in work)


DlogCache = Dict[Tuple[int, int, int, int], Tuple[int, Tuple[LaurentElement, ...]]]


def dlog_basis(
    alg: TensorAlgebra, m_prime: int, trunc: int, cache: DlogCache
) -> Tuple[LaurentElement, ...]:
    """dlog of the Artin-Hasse factor of each coherent basis tuple at m'.

    Computed in the compressed variable v = u^{m'}, then re-expanded; kept
    in ``cache`` per (field, n, m') and rebuilt when a larger truncation is
    requested, as the package does.
    """
    key = (alg.fq.p, alg.fq.r, alg.n, m_prime)
    cached = cache.get(key)
    if cached is not None and cached[0] >= trunc:
        return cached[1]
    v_trunc = trunc // m_prime
    scale = alg.fq.scalar(m_prime % alg.fq.p)
    u_trunc = (v_trunc + 1) * m_prime - 1
    dlogs = []
    for tuple_t in coherent_basis(alg.fq, alg.n):
        compressed = epsilon_series(alg, tuple_t, 1, v_trunc)
        g = dlog_truncated(alg, compressed)
        expanded = {
            d * m_prime: alg.scale(scale, c) for d, c in g.coeffs.items()
        }
        dlogs.append(LaurentElement(expanded, u_trunc))
    result = tuple(dlogs)
    cache[key] = (trunc, result)
    return result
