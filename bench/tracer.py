"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install()` rebinds each traced function in every `adorep` module
that holds it and patches each traced method on its class;
`Tracer.uninstall()` puts the originals back.  Nothing is patched while no
tracer is installed, so an untraced run executes the library unchanged;
`assert_untraced()` checks exactly that.

A span is (name, start, end, parent), with parent the index of the
enclosing span or -1.  A layer's self time is its span's duration minus the
time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, metric prefix); every call becomes a span
SPANS = (
    ("pipeline", "ado_representation", "pipeline.ado_representation"),
    ("pipeline", "verify_representation", "pipeline.verify_representation"),
    ("pipeline", "verify_certificate", "pipeline.verify_certificate"),
    ("exact_linalg", "ExactMatrix.__mul__", "exact_linalg.matmul"),
    ("exact_linalg", "rref", "exact_linalg.rref"),
    ("exact_linalg", "hnf", "exact_linalg.hnf"),
    ("exact_linalg", "solve_left", "exact_linalg.solve_left"),
    ("exact_linalg", "Submodule.coordinates", "exact_linalg.Submodule.coordinates"),
    ("lie_core", "validate", "lie_core.validate"),
    ("lie_core", "solvable_radical", "lie_core.solvable_radical"),
    ("lie_core", "nilradical", "lie_core.nilradical"),
    ("lie_core", "lower_central_series", "lie_core.lower_central_series"),
    ("pbw", "build_weighted_basis", "pbw.build_weighted_basis"),
    ("pbw", "TruncatedUEA.left_mult_matrix", "pbw.TruncatedUEA.left_mult_matrix"),
    ("pbw", "TruncatedUEA.derivation_star", "pbw.TruncatedUEA.derivation_star"),
    ("nilrep", "nilpotent_faithful_rep", "nilrep.nilpotent_faithful_rep"),
    ("zassenhaus", "splittable_rep", "zassenhaus.splittable_rep"),
    ("embed", "embed_splittable", "embed.embed_splittable"),
    ("embed", "levi_decomposition", "embed.levi_decomposition"),
    ("embed", "elementary_expansion", "embed.elementary_expansion"),
    ("embed", "integral_rescale", "embed.integral_rescale"),
    ("embed", "jordan_chevalley", "embed.jordan_chevalley"),
    ("rep", "LinearRep.homomorphism_violations", "rep.LinearRep.homomorphism_violations"),
    ("rep", "restrict_rep", "rep.restrict_rep"),
)

# called too often for a span each; only counted
COUNTED = (("lie_core", "LieLattice.bracket", "lie_core.LieLattice.bracket"),)

# spans whose first argument is a lattice; repeat_frac is the share of calls
# on a lattice already seen in the same pass
REPEATS = ("lie_core.solvable_radical", "lie_core.nilradical")

MATMUL = "exact_linalg.matmul"
ROOT = "pipeline.ado_representation"


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a module function or a class method."""
    mod = importlib.import_module(f"adorep.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(mod, cls_name)
        return owner, attr, owner.__dict__[attr]
    return mod, path, getattr(mod, path)


def _holders(owner, attr: str, original):
    """Every place the original is bound: the class for a method, else each
    adorep module that imported the function under the same name."""
    if isinstance(owner, type):
        return [owner]
    return [m for m in _adorep_modules() if getattr(m, attr, None) is original]


def _targets():
    for module, path, metric in SPANS + COUNTED:
        owner, attr, original = _resolve(module, path)
        yield metric, attr, original, _holders(owner, attr, original)


def _adorep_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "adorep" or name.startswith("adorep.")]


def assert_untraced() -> None:
    """Fail if any traced name, in any adorep module or class, is a wrapper."""
    for module, path, metric in SPANS + COUNTED:
        if getattr(_resolve(module, path)[2], "_bench_traced", False):
            raise AssertionError(f"{metric} is wrapped")
    for m in _adorep_modules():
        for value in vars(m).values():
            if getattr(value, "_bench_traced", False):
                raise AssertionError(f"{m.__name__} holds a wrapped function")


def _matmul_work(A, B) -> tuple[int, int]:
    """Dense multiply-adds m*k*n and the products with both factors nonzero."""
    if getattr(B, "entries", None) is None or A.cols != B.rows:
        return 0, 0
    col_nnz = [0] * A.cols
    for row in A.entries:
        for j, x in enumerate(row):
            if x:
                col_nnz[j] += 1
    useful = 0
    for j, c in enumerate(col_nnz):
        if c:
            useful += c * sum(1 for x in B.entries[j] if x)
    return A.rows * A.cols * B.cols, useful


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    def new_pass(self) -> None:
        self._seen.clear()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for metric, attr, original, holders in _targets():
            wrapper = self._wrap(metric, original)
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, metric: str, fn):
        if any(metric == m for _, _, m in COUNTED):
            counts = self.counts

            def counted(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)

            counted._bench_traced = True
            return counted

        if metric not in self._name_index:
            self._name_index[metric] = len(self.names)
            self.names.append(metric)
        index = self._name_index[metric]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, repeats, seen = self.counts, self.repeats, self._seen
        is_matmul = metric == MATMUL
        tracks_repeats = metric in REPEATS

        def traced(*args, **kwargs):
            if is_matmul:
                madds, useful = _matmul_work(*args)
                counts[MATMUL + ".madds"] += madds
                counts[MATMUL + ".useful"] += useful
            if tracks_repeats:
                lattices = seen[metric]
                if args[0] in lattices:
                    repeats[metric] += 1
                else:
                    lattices.add(args[0])
            me = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)

        traced._bench_traced = True
        return traced

    # -- results --------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans of that name) and
        self_s; the root also gets covered_s, the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "covered_s": 0.0} for n in self.names
        }
        for i, (index, start, end, parent) in enumerate(self.spans):
            s = stats[self.names[index]]
            s["calls"] += 1
            s["self_s"] += end - start - child_time[i]
            s["covered_s"] += child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != index:
                p = self.spans[p][3]
            if p < 0:
                s["total_s"] += end - start
        return stats

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
