"""Seeded inputs of the benchmark workloads and their reference values.

Every reference is independent of the library: closed forms, counts made
here, or the `expected` values that the catalog states for its lattices.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb

from adorep import catalog
from adorep.exact_linalg import ExactMatrix
from adorep.jsonio import lattice_to_json
from adorep.lie_core import LieLattice, change_basis, direct_sum, lie_lattice, semidirect_assemble

WORKLOADS = ("nilpotent-regular", "theorem-solvable", "theorem-scrambled")

# Sizes of the seeded rank-one extensions Z^n x| Z.  They are fixed so that
# every seed does the same amount of work; the seed only picks the action.
EXTENSION_RANKS = (2, 3)

# Scrambled copies of each lattice in theorem-scrambled.  The cost of one
# copy depends on its basis by up to a factor of 2; three copies cut the
# seed-to-seed spread of the workload's total by about sqrt(3).
SCRAMBLES = 3


@dataclass(frozen=True)
class Case:
    """One lattice of a workload and what its result must be."""

    name: str
    lattice: LieLattice
    strict: bool
    degree: int
    scalars: tuple[int, int] | None = None  # reference (mu, lam), where known


def heisenberg_degree(p: int) -> int:
    """Truncated regular degree of the Heisenberg lattice of rank 2p + 1:
    monomials of weight <= 2 with 2p letters of weight 1 and z of weight 2."""
    return 2 + 2 * p + comb(2 * p + 1, 2)


def filiform(n: int) -> LieLattice:
    """Filiform lattice F_n of rank n: [x0, xi] = x(i+1) for 1 <= i <= n - 2."""
    brackets = {}
    for i in range(1, n - 1):
        coeffs = [0] * n
        coeffs[i + 1] = 1
        brackets[(0, i)] = coeffs
    return lie_lattice([f"x{i}" for i in range(n)], brackets)


def filiform_degree(n: int) -> int:
    """Monomials with weights (1, 1, 2, ..., n - 1) and weight <= n - 1."""
    weights = [1, 1] + list(range(2, n))
    cutoff = n - 1
    counts = [1] + [0] * cutoff  # counts[w]: monomials of weight exactly w
    for w in weights:
        for total in range(w, cutoff + 1):
            counts[total] += counts[total - w]
    return sum(counts)


def t2_power(k: int) -> LieLattice:
    L = catalog.t2_upper()
    for _ in range(k - 1):
        L = direct_sum(L, catalog.t2_upper())
    return L


def companion_extension() -> LieLattice:
    """Z^4 x| Z acting by the companion matrix of (T^2 - 2)^2."""
    C = ExactMatrix.from_rows([[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]])
    return semidirect_assemble(catalog.abelian(4), lie_lattice(["y"], {}), [C])


def affine_sl2() -> LieLattice:
    """Z^2 x| sl2 with the defining action."""
    act = [
        ExactMatrix.from_rows(m)
        for m in ([[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]])
    ]
    return semidirect_assemble(catalog.abelian(2), catalog.sl2(), act)


def random_unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A seeded unimodular P and its inverse, as int lists.

    P is a relabelled product of a unit upper and a unit lower bidiagonal
    matrix with off-diagonal signs from the seed.  Its shape is fixed, so
    P and P^-1 have small entries for every seed.
    """
    upper = [rng.choice((-1, 1)) for _ in range(n - 1)]
    lower = [rng.choice((-1, 1)) for _ in range(n - 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    # P <- P * (I + s E_ab) adds s * column a to column b;
    # Pinv <- (I - s E_ab) * Pinv subtracts s * row b from row a
    ops = [(i, i + 1, s) for i, s in enumerate(upper)]
    ops += [(i + 1, i, s) for i, s in enumerate(lower)]
    for a, b, s in ops:
        a, b = perm[a], perm[b]
        for row in P:
            row[b] += s * row[a]
    for a, b, s in ops:
        a, b = perm[a], perm[b]
        Pinv[a] = [x - s * y for x, y in zip(Pinv[a], Pinv[b])]
    return P, Pinv


def _int_matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def rank_one_extension(rng: random.Random, n: int) -> LieLattice:
    """Z^n x| Z where the generator acts by U D U^-1 with D diagonal, its
    entries distinct and nonzero.  The action is semisimple, so the
    expansion adds one generator acting by zero and the strict degree is
    (n + 2) + (n + 1)."""
    diag = rng.sample([d for d in range(-4, 5) if d], n)
    U, Uinv = random_unimodular(rng, n)
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    A = _int_matmul(_int_matmul(U, D), Uinv)
    return semidirect_assemble(
        catalog.abelian(n), lie_lattice(["y"], {}), [ExactMatrix.from_rows(A)]
    )


def _catalog_case(name: str) -> Case:
    entry = catalog.get(name)
    return Case(name, entry.lattice, True, entry.expected["strict_ado_degree"])


def theorem_cases(rng: random.Random, include_t2_cubed: bool) -> list[Case]:
    ks = (1, 2, 3) if include_t2_cubed else (1, 2)
    cases = [Case(f"t2^{k}", t2_power(k), True, 6 * k + 1) for k in ks]
    cases += [_catalog_case(n) for n in ("churkin_sl2_t2", "solv3_weights", "heisenberg5")]
    # the semisimple part of the companion action has denominator 4, which
    # forces mu = lam = 4; N-bar is Z^4 + x' of class 2 with a rank-2 second
    # term, so the regular part has 1 + 3 + 6 + 2 = 12 monomials, plus the
    # adjoint of rank 5
    cases.append(Case("companion", companion_extension(), True, 17, (4, 4)))
    # sl2 acts on the abelian radical: N-bar = Z^2, 3 monomials + adjoint 5
    cases.append(Case("affine_sl2", affine_sl2(), True, 8))
    ext = rank_one_extension(rng, 2)
    # sl2 + (Z^2 x| Z): N-bar abelian of rank 3, 4 monomials + adjoint 6
    cases.append(Case("sl2+ext2", direct_sum(catalog.sl2(), ext), True, 10))
    for n in EXTENSION_RANKS:
        cases.append(Case(f"ext{n}", rank_one_extension(rng, n), True, 2 * n + 3))
    return cases


def scrambled(rng: random.Random, case: Case, copy: int) -> Case:
    """The same lattice in a seeded unimodular basis; the degree is a basis
    invariant, the scaling integers are not."""
    P, _ = random_unimodular(rng, case.lattice.rank)
    L = change_basis(case.lattice, ExactMatrix.from_rows(P))
    return Case(f"{case.name}~{copy}", L, True, case.degree)


def build(workload: str, seed: int) -> list[Case]:
    """The workload's lattices, generated from the seed and shuffled by it."""
    rng = random.Random(seed)
    if workload == "nilpotent-regular":
        cases = [
            Case(f"heisenberg{2 * p + 1}", catalog.heisenberg(p), False, heisenberg_degree(p))
            for p in range(1, 5)
        ]
        cases += [Case(f"F{n}", filiform(n), False, filiform_degree(n)) for n in range(4, 8)]
    elif workload == "theorem-solvable":
        cases = theorem_cases(rng, include_t2_cubed=True)
    elif workload == "theorem-scrambled":
        cases = [
            scrambled(rng, c, copy)
            for c in theorem_cases(rng, include_t2_cubed=False)
            for copy in range(1, SCRAMBLES + 1)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def digest(L: LieLattice) -> str:
    text = json.dumps(lattice_to_json(L), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    """One digest over the per-lattice digests, in workload order."""
    return hashlib.sha256(json.dumps(list(digests.items())).encode()).hexdigest()
