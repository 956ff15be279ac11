"""Built-in test lattices with their known invariants."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .lie_core import LieLattice, direct_sum, lie_lattice, scale_lattice


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lattice: LieLattice
    expected: dict


def heisenberg(pairs: int) -> LieLattice:
    """Rank 2*pairs + 1 Heisenberg lattice: [x_i, y_i] = z."""
    names = []
    for i in range(pairs):
        names += [f"x{i + 1}", f"y{i + 1}"]
    names.append("z")
    r = len(names)
    z = [0] * r
    z[-1] = 1
    return lie_lattice(names, {(2 * i, 2 * i + 1): z for i in range(pairs)})


def abelian(r: int) -> LieLattice:
    return lie_lattice([f"a{i + 1}" for i in range(r)], {})


def sl2() -> LieLattice:
    # basis (e, h, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return lie_lattice(
        ["e", "h", "f"], {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}
    )


def t2_upper() -> LieLattice:
    # 2x2 upper triangular matrices, basis (E11, E12, E22)
    return lie_lattice(["a", "b", "c"], {(0, 1): [0, 1, 0], (1, 2): [0, 1, 0]})


def n3_strictly_upper() -> LieLattice:
    # 3x3 strictly upper triangular, basis (E12, E13, E23): [E12, E23] = E13
    return lie_lattice(["u12", "u13", "u23"], {(0, 2): [0, 1, 0]})


def solv2() -> LieLattice:
    return lie_lattice(["a", "b"], {(0, 1): [0, 1]})


def solv3_weights() -> LieLattice:
    # [a,b] = b, [a,c] = 2c: semisimple ad_a with integer weights 1, 2
    return lie_lattice(["a", "b", "c"], {(0, 1): [0, 1, 0], (0, 2): [0, 0, 2]})


def churkin_sl2_t2() -> LieLattice:
    """sl_2(2Z) + t_2(2Z): the direct sum of trace-zero and upper triangular
    2x2 matrices over 2Z; not splittable, yet it embeds in a splittable
    lattice."""
    return direct_sum(scale_lattice(sl2(), 2), scale_lattice(t2_upper(), 2))


_BUILDERS: dict[str, Callable[[], LieLattice]] = {
    "heisenberg3": lambda: heisenberg(1),
    "heisenberg5": lambda: heisenberg(2),
    "abelian_r": lambda: abelian(3),
    "sl2": sl2,
    "t2_upper": t2_upper,
    "n3_strictly_upper": n3_strictly_upper,
    "solv2": solv2,
    "solv3_weights": solv3_weights,
    "churkin_sl2_t2": churkin_sl2_t2,
}

_EXPECTED: dict[str, dict] = {
    "heisenberg3": dict(
        nilpotency_class=2, rs_rank=3, rn_rank=3, center_rank=1,
        nilrep_degree=7, strict_ado_degree=10,
    ),
    "heisenberg5": dict(
        nilpotency_class=2, rs_rank=5, rn_rank=5, center_rank=1,
        nilrep_degree=16, strict_ado_degree=21,
    ),
    "abelian_r": dict(
        nilpotency_class=1, rs_rank=3, rn_rank=3, center_rank=3,
        nilrep_degree=4, strict_ado_degree=7,
    ),
    "sl2": dict(
        nilpotency_class=None, rs_rank=0, rn_rank=0, center_rank=0,
        nilrep_degree=None, strict_ado_degree=4,
    ),
    "t2_upper": dict(
        nilpotency_class=None, rs_rank=3, rn_rank=2, center_rank=1,
        nilrep_degree=None, strict_ado_degree=7,
    ),
    "n3_strictly_upper": dict(
        nilpotency_class=2, rs_rank=3, rn_rank=3, center_rank=1,
        nilrep_degree=7, strict_ado_degree=10,
    ),
    "solv2": dict(
        nilpotency_class=None, rs_rank=2, rn_rank=1, center_rank=0,
        nilrep_degree=None, strict_ado_degree=5,
    ),
    "solv3_weights": dict(
        nilpotency_class=None, rs_rank=3, rn_rank=2, center_rank=0,
        nilrep_degree=None, strict_ado_degree=7,
    ),
    "churkin_sl2_t2": dict(
        nilpotency_class=None, rs_rank=3, rn_rank=2, center_rank=1,
        nilrep_degree=None, strict_ado_degree=10,
    ),
}

_ABELIAN_PATTERN = re.compile(r"^abelian_(\d+)$")


def names() -> list[str]:
    return list(_BUILDERS)


def get(name: str) -> CatalogEntry:
    """Look up an entry; `abelian_r` defaults to rank 3, `abelian_<k>` gives rank k."""
    if name in _BUILDERS:
        return CatalogEntry(name, _BUILDERS[name](), dict(_EXPECTED[name]))
    m = _ABELIAN_PATTERN.match(name)
    if m:
        r = int(m.group(1))
        if r < 1:
            raise KeyError(name)
        return CatalogEntry(
            name,
            abelian(r),
            dict(
                nilpotency_class=1, rs_rank=r, rn_rank=r, center_rank=r,
                nilrep_degree=r + 1, strict_ado_degree=2 * r + 1,
            ),
        )
    raise KeyError(name)
