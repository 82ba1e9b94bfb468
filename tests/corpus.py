"""Shared structure corpus for the test suite.

Builders are cached so expensive structures (the 625-element zero-fixing
map near-ring in particular) are constructed once per test session.
"""

from functools import cache

import numpy as np

from loopnr import (
    CayleyLoop,
    FiniteRing,
    LnrHom,
    LoopNearRing,
    all_loops,
    cyclic_ring,
    galois_field,
    map_near_ring,
    matrix_ring,
    product,
    random_loop,
    smallest_nonassociative_loop,
    upper_triangular_ring,
    validate_lnr_hom,
    validate_loop,
    validate_ring_tables,
)


@cache
def z(n: int) -> FiniteRing:
    return cyclic_ring(n)


@cache
def gf(q: int) -> FiniteRing:
    return galois_field(q)


@cache
def m2(base: int) -> FiniteRing:
    return matrix_ring(z(base), 2)


@cache
def ut2(base: int) -> FiniteRing:
    return upper_triangular_ring(z(base))


@cache
def tri_f2(k: int) -> FiniteRing:
    """[[F2, F2^k], [0, F2]]: element a + 2b + 4v is [[a, v], [0, b]]."""
    x = np.arange(4 << k)
    a, b, v = x & 1, x >> 1 & 1, x >> 2
    mul = (a[:, None] & a) | (b[:, None] & b) << 1 | ((a[:, None] * v) ^ (v[:, None] * b)) << 2
    return validate_ring_tables((x[:, None] ^ x).astype(np.int16), mul.astype(np.int16), 3)


@cache
def trivial_extension_f2(k: int) -> FiniteRing:
    """R_k = F2 x| F2^k, (a, v)(b, w) = (ab, aw + bv): element a + 2v.
    Local with J = V, and every additive subgroup of V is a left ideal."""
    x = np.arange(2 << k)
    a, v = x & 1, x >> 1
    mul = (a[:, None] & a) | ((a[:, None] * v) ^ (v[:, None] * a)) << 1
    return validate_ring_tables((x[:, None] ^ x).astype(np.int16), mul.astype(np.int16), 1)


@cache
def zz(a: int, b: int) -> FiniteRing:
    return product([z(a), z(b)])


@cache
def m0(spec: str) -> LoopNearRing:
    if spec == "nonassoc5":
        return map_near_ring(smallest_nonassociative_loop(), zero_fixing=True)
    if spec.startswith("small:"):
        order, idx = spec.split(":")[1].split(",")
        return map_near_ring(all_loops(int(order))[int(idx)], zero_fixing=True)
    raise ValueError(spec)


@cache
def m_full(n: int) -> LoopNearRing:
    return map_near_ring(cyclic_loop(n), zero_fixing=False)


@cache
def cyclic_loop(n: int) -> CayleyLoop:
    return validate_loop(z(n).add)


@cache
def small_loops(order: int) -> tuple[CayleyLoop, ...]:
    return all_loops(order)


@cache
def nonassoc5() -> CayleyLoop:
    return smallest_nonassociative_loop()


@cache
def locality_corpus() -> tuple[tuple[str, LoopNearRing], ...]:
    """Zero-symmetric corpus: rings plus zero-fixing map near-rings."""
    out: list[tuple[str, LoopNearRing]] = []
    for n in range(1, 17):
        out.append((f"cyclic:{n}", z(n)))
    out.append(("gf:4", gf(4)))
    out.append(("z2xz2", zz(2, 2)))
    out.append(("z4xz2", zz(4, 2)))
    out.append(("m2(z2)", m2(2)))
    out.append(("m2(z3)", m2(3)))
    out.append(("ut2(z2)", ut2(2)))
    out.append(("ut2(z3)", ut2(3)))
    for order in (1, 2, 3, 4):
        for i, loop in enumerate(small_loops(order)):
            out.append((f"m0(loop{order}.{i})", map_near_ring(loop, zero_fixing=True)))
    out.append(("m0(nonassoc5)", m0("nonassoc5")))
    for seed in range(50):
        order = 2 + seed % 3
        loop = random_loop(order, seed)
        out.append((f"m0(rand{order}s{seed})", map_near_ring(loop, zero_fixing=True)))
    return tuple(out)


@cache
def ring_corpus() -> tuple[tuple[str, FiniteRing], ...]:
    """Rings of order at most 256."""
    out: list[tuple[str, FiniteRing]] = []
    for n in range(1, 17):
        out.append((f"cyclic:{n}", z(n)))
    out.append(("gf:4", gf(4)))
    out.append(("gf:8", gf(8)))
    out.append(("gf:9", gf(9)))
    out.append(("z2xz2", zz(2, 2)))
    out.append(("z2xz3", zz(2, 3)))
    out.append(("z4xz2", zz(4, 2)))
    out.append(("m2(z2)", m2(2)))
    out.append(("m2(z3)", m2(3)))
    out.append(("m2(z4)", m2(4)))
    out.append(("ut2(z2)", ut2(2)))
    out.append(("ut2(z3)", ut2(3)))
    return tuple(out)


@cache
def small_ring_corpus() -> tuple[tuple[str, FiniteRing], ...]:
    """Rings of order at most 64, for decomposition sweeps."""
    return tuple((name, ring) for name, ring in ring_corpus() if ring.n <= 64)


def hom(source: LoopNearRing, target: LoopNearRing, mapping) -> LnrHom:
    return validate_lnr_hom(list(mapping), source, target)


@cache
def unit_reflecting_hom_corpus() -> tuple[tuple[str, LnrHom], ...]:
    """Nontrivial unit-reflecting homomorphisms with ring codomains."""
    out: list[tuple[str, LnrHom]] = []
    for n in range(2, 17):
        out.append((f"id cyclic:{n}", hom(z(n), z(n), range(n))))
    out.append(("id m2(z2)", hom(m2(2), m2(2), range(16))))
    out.append(("id gf:4", hom(gf(4), gf(4), range(4))))
    # residue isomorphisms onto direct products
    for (a, b) in ((2, 3), (2, 5), (3, 4), (3, 5)):
        n = a * b
        tgt = zz(a, b)
        out.append((f"crt z{n}", hom(z(n), tgt, [(x % a) * b + x % b for x in range(n)])))
    # diagonal embeddings
    for n in (2, 3, 4):
        tgt = zz(n, n)
        out.append((f"diag z{n}", hom(z(n), tgt, [x * n + x for x in range(n)])))
    # prime-power quotient maps
    for (n, k) in ((4, 2), (8, 2), (8, 4), (9, 3), (16, 4), (16, 8)):
        out.append((f"z{n}->z{k}", hom(z(n), z(k), [x % k for x in range(n)])))
    # zero-fixing maps on a 2-element group are the scalars
    src = map_near_ring(cyclic_loop(2), zero_fixing=True)
    out.append(("m0(z2)->z2", hom(src, z(2), [0, 1])))
    return tuple(out)
