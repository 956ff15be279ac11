"""Benchmark of `ado_representation`, end to end and per library layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in this process, closed loop on a single
thread: each lattice is run to a verified result before the next starts.
Passes over the workload repeat, at least twice, until the next one would
end after `--seconds`.  The last line of stdout is the result as one JSON object;
per-lattice timings go to stderr.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes traced by wrappers (tracer.py), reports the per-layer
metrics and writes the spans to .bench_out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh processes whose set-up time is measured, this one included
SETUP_SAMPLES = 3
# lattices of this reference degree or less are cheap enough to verify
# again in the negative controls and to warm up on
CHEAP_DEGREE = 16
WARMUP_CASES = 3
# two passes give every lattice a median of two samples, also when a slow
# spell of the host makes one pass take most of --seconds
MIN_PASSES = 2
# On a shared host the speed of one core drifts by up to 40 % within a
# minute, which no number of passes averages away.  So each call's wall time
# is rescaled by the host's speed during the call, measured with a fixed
# Fraction loop (calibration_seconds) run just before and just after the
# call and, every SPEED_PERIOD_S, inside it.  CALIBRATION_S is that loop's
# typical time on the 2-vCPU x86-64 host, Python 3.11, where the benchmark
# was defined: scaled times read as seconds on that host at its typical speed.
CALIBRATION_STEPS = 6000
CALIBRATION_S = 0.050
SPEED_PERIOD_S = 0.1
SPEED_STEPS = 150


def calibration_seconds(steps: int = CALIBRATION_STEPS) -> float:
    """Time of a fixed pure-Python Fraction loop, independent of adorep,
    scaled to CALIBRATION_STEPS steps."""
    t0 = time.perf_counter()
    a, s = Fraction(3, 7), Fraction(0)
    for i in range(1, steps):
        s += a * Fraction(i, i + 1)
    return (time.perf_counter() - t0) * CALIBRATION_STEPS / steps


class SpeedProbe:
    """Short calibration loops run from a timer signal while a call runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibration_seconds(SPEED_STEPS))

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Sample(NamedTuple):
    """One ado call: wall seconds, the same rescaled to the calibration
    speed, the (rep, report, cert) result or None, and whether it verified."""

    seconds: float
    scaled: float
    result: tuple | None
    ok: bool


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Inputs, references and the closed-loop passes of one workload."""

    def __init__(self, workload: str, seed: int):
        import workloads
        from adorep import pipeline

        self.pipeline = pipeline
        self.seed = seed
        self.cases = workloads.build(workload, seed)
        self.digests = {c.name: workloads.digest(c.lattice) for c in self.cases}
        self.cheap = sorted(
            (c for c in self.cases if c.degree <= CHEAP_DEGREE), key=lambda c: (c.degree, c.name)
        )
        self.attempted = 0
        self.failed = 0
        self.control_cert = None
        self.probe = SpeedProbe()
        self.speeds: list[float] = []

    def warm_up(self) -> None:
        """Import-time and first-call costs (lazy imports, the cached eta
        enclosure, interpreter specialisation) are paid here, on the
        cheapest lattices of the workload, not in the first timed pass."""
        for case in self.cheap[:WARMUP_CASES]:
            if not self.check(case, *self.call(case)[1:]):
                raise RuntimeError(f"warm-up lattice {case.name} failed")

    def call(self, case):
        """(wall seconds, result or None, error or None) of one ado call."""
        t0 = time.perf_counter()
        try:
            # looked up at call time, so a traced pass calls the wrapper
            result = self.pipeline.ado_representation(case.lattice, strict=case.strict)
        except Exception as exc:  # a failed lattice is counted, not fatal
            return time.perf_counter() - t0, None, exc
        return time.perf_counter() - t0, result, None

    @staticmethod
    def check(case, result, error) -> bool:
        """The lattice verified, with its reference degree and scalars."""
        if error is not None:
            log(f"  {case.name}: {type(error).__name__}: {error}")
            return False
        rep, report, cert = result
        ok = report.ok and report.degree == case.degree
        if case.scalars is not None:
            ok = ok and cert is not None and (cert.mu, cert.lam) == case.scalars
        if not ok:
            got = (report.degree, cert and (cert.mu, cert.lam))
            log(f"  {case.name}: expected degree {case.degree} scalars {case.scalars}, got {got}")
        return ok

    def run_pass(self) -> dict[str, Sample]:
        """One closed-loop pass over the workload, in workload order."""
        out = {}
        before = calibration_seconds()
        for case in self.cases:
            gc.collect()
            with self.probe:
                seconds, result, error = self.call(case)
            after = calibration_seconds()
            ok = self.check(case, result, error)
            self.attempted += 1
            self.failed += not ok
            speed = (before + after) / 2
            if self.probe.samples:
                speed = (speed + statistics.median(self.probe.samples)) / 2
            self.speeds.append(speed)
            out[case.name] = Sample(seconds, seconds * CALIBRATION_S / speed, result, ok)
            before = after
        return out

    def negative_controls(self, index: int, results: dict[str, Sample]) -> None:
        """Corrupt one delivered matrix and one certificate; both verifiers
        must reject them.  Runs outside the timed region, on a cheap lattice
        that changes from pass to pass."""
        from adorep.embed import embed_splittable
        from adorep.pipeline import verify_certificate, verify_representation

        rng = random.Random(f"{self.seed}/{index}")
        verified = [c for c in self.cheap if results[c.name].ok]
        if not verified:
            log("  negative controls skipped: no cheap lattice verified in this pass")
            return
        case = verified[index % len(verified)]
        rep, _, cert = results[case.name].result
        if verify_representation(case.lattice, corrupt_rep(rep, case.lattice, rng)).ok:
            raise RuntimeError(f"verify_representation accepted a corrupted matrix of {case.name}")
        if cert is None:
            if self.control_cert is None:
                self.control_cert = embed_splittable(self.cheap[0].lattice)
            cert = self.control_cert
        if verify_certificate(corrupt_certificate(cert, rng)).ok:
            raise RuntimeError(f"verify_certificate accepted a corrupted injection of {case.name}")


def corrupt_rep(rep, L, rng):
    """Add 1 to a diagonal entry of the matrix of some x_i that occurs in a
    bracket [x_j, x_k].  Every commutator has trace 0 but the image of
    [x_j, x_k] now has trace c_jk^i != 0, so the homomorphism check must
    fail on (j, k)."""
    from adorep.exact_linalg import ExactMatrix
    from adorep.rep import LinearRep

    triples = [
        (j, k, i)
        for j in range(L.rank)
        for k in range(j + 1, L.rank)
        for i in range(L.rank)
        if L.c[j][k][i]
    ]
    _, _, i = rng.choice(triples)
    d = rng.randrange(rep.degree)
    rows = [list(row) for row in rep.matrices[i].entries]
    rows[d][d] += 1
    mats = list(rep.matrices)
    mats[i] = ExactMatrix.from_rows(rows)
    return LinearRep(lattice=rep.lattice, matrices=tuple(mats), provenance="negative-control")


def _bracket(c, u, v) -> list:
    out = [0] * len(c)
    for a, ua in enumerate(u):
        if ua:
            for b, vb in enumerate(v):
                if vb:
                    for t, x in enumerate(c[a][b]):
                        if x:
                            out[t] += ua * vb * x
    return out


def _is_homomorphism(L, ext, inj) -> bool:
    """inj maps brackets of L to brackets of ext, in this file's own arithmetic."""
    for a in range(L.rank):
        for b in range(a + 1, L.rank):
            image = [0] * ext.rank
            for t, x in enumerate(L.c[a][b]):
                if x:
                    image = [y + x * z for y, z in zip(image, inj[t])]
            if image != _bracket(ext.c, inj[a], inj[b]):
                return False
    return True


def corrupt_certificate(cert, rng):
    """Add 1 to one injection entry, chosen so that the corrupted injection
    is provably not a homomorphism (checked here, not by the library)."""
    from adorep.exact_linalg import ExactMatrix

    inj = cert.injection
    cells = [(i, k) for i in range(inj.rows) for k in range(inj.cols)]
    rng.shuffle(cells)
    for i, k in cells:
        rows = [list(row) for row in inj.entries]
        rows[i][k] += 1
        if not _is_homomorphism(cert.original, cert.extension, rows):
            return replace(cert, injection=ExactMatrix.from_rows(rows, cols=inj.cols))
    raise RuntimeError("no single-entry change breaks the injection")


def one_pass(passes: list[dict[str, Sample]], field: str = "scaled") -> float:
    """Seconds of one pass: the sum over lattices of the median over passes."""
    return sum(
        statistics.median(getattr(p[name], field) for p in passes) for name in passes[0]
    )


def scaled_setup_seconds() -> float:
    """Seconds since the interpreter reached this file, rescaled to the
    calibration speed like the ado times."""
    seconds = time.perf_counter() - START
    return seconds * CALIBRATION_S / calibration_seconds()


def measure_setup(args, own: float) -> float:
    """Median set-up time over fresh processes, this one (`own`) included."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def measured_passes(runner, seconds: float, tracer=None):
    """At least MIN_PASSES passes, then more until the next one would end
    after `seconds`.  With a tracer, passes alternate untraced, traced,
    untraced, ..."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        if tracer is not None and index % 2 == 1:
            tracer.new_pass()
            tracer.install()
            try:
                result = runner.run_pass()
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            tracing.assert_untraced()
            result = runner.run_pass()
            untraced.append(result)
        runner.negative_controls(index, result)
        index += 1
        now = time.perf_counter()
        if index < MIN_PASSES:
            continue
        if now - t0 + (now - pass_start) > seconds:
            break
    return untraced, traced


def report_times(label: str, passes: list[dict[str, Sample]]) -> None:
    for name in passes[0]:
        times = " ".join(f"{p[name].seconds:.3f}/{p[name].scaled:.3f}" for p in passes)
        log(f"  {label} {name} wall/scaled s: {times}")
    log(f"  {label} one pass: {one_pass(passes, 'seconds'):.3f} s wall, {one_pass(passes):.3f} s scaled")


def end_to_end(runner, untraced, setup_s) -> dict:
    # a verified degree equals its reference, so passes differ only by failures
    degree_total = sum(s.result[1].degree for s in untraced[0].values() if s.ok)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ado_s": {"value": one_pass(untraced), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "verified_frac": {
            "value": (runner.attempted - runner.failed) / runner.attempted,
            "unit": "fraction",
        },
        "degree_total": {"value": degree_total, "unit": "count"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def per_layer(tracer, untraced, traced) -> dict:
    for name in traced[0]:
        for u, t in zip(untraced, traced):
            if u[name].ok and t[name].ok and u[name].result[0].matrices != t[name].result[0].matrices:
                raise RuntimeError(f"traced and untraced runs of {name} differ")
    n = len(traced)
    stats = tracer.layer_stats()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "covered_s": 0.0}

    def s(name):
        return stats.get(name, zero)

    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit):
        out[metric] = (value, unit)

    matmul, root_name = tracing.MATMUL, tracing.ROOT
    for name in (matmul, "exact_linalg.rref", "exact_linalg.hnf"):
        put(f"{name}.calls", s(name)["calls"] / n, "count")
        put(f"{name}.self_s", s(name)["self_s"] / n, "s")
    madds = tracer.counts[matmul + ".madds"]
    put(f"{matmul}.madds", madds / n, "count")
    put(f"{matmul}.useful_frac", tracer.counts[matmul + ".useful"] / madds if madds else 0.0, "fraction")
    for name in ("exact_linalg.solve_left", "exact_linalg.Submodule.coordinates"):
        put(f"{name}.calls", s(name)["calls"] / n, "count")
    for name in tracing.REPEATS:
        calls = s(name)["calls"]
        put(f"{name}.calls", calls / n, "count")
        put(f"{name}.total_s", s(name)["total_s"] / n, "s")
        put(f"{name}.repeat_frac", tracer.repeats[name] / calls if calls else 0.0, "fraction")
    put("lie_core.validate.total_s", s("lie_core.validate")["total_s"] / n, "s")
    put("lie_core.LieLattice.bracket.calls", tracer.counts["lie_core.LieLattice.bracket"] / n, "count")
    for name in ("pbw.TruncatedUEA.left_mult_matrix", "pbw.TruncatedUEA.derivation_star"):
        put(f"{name}.calls", s(name)["calls"] / n, "count")
    for name in (
        "pbw.build_weighted_basis",
        "pbw.TruncatedUEA.left_mult_matrix",
        "pbw.TruncatedUEA.derivation_star",
        "nilrep.nilpotent_faithful_rep",
        "zassenhaus.splittable_rep",
        "embed.embed_splittable",
        "embed.levi_decomposition",
        "embed.integral_rescale",
        "embed.jordan_chevalley",
        "rep.LinearRep.homomorphism_violations",
        "rep.restrict_rep",
        "pipeline.verify_representation",
        "pipeline.verify_certificate",
        root_name,
    ):
        put(f"{name}.total_s", s(name)["total_s"] / n, "s")
    put("embed.elementary_expansion.calls", s("embed.elementary_expansion")["calls"] / n, "count")
    certs = [x.result[2] for p in traced for x in p.values() if x.ok and x.result[2] is not None]
    put("embed.integral_rescale.mu_max", max((c.mu for c in certs), default=0), "scalar")
    put("embed.integral_rescale.lam_max", max((c.lam for c in certs), default=0), "scalar")
    root = s(root_name)
    verify = s("pipeline.verify_representation")["total_s"] + s("pipeline.verify_certificate")["total_s"]
    put("pipeline.verify_share", verify / root["total_s"], "fraction")
    put("trace.coverage", root["covered_s"] / root["total_s"], "fraction")
    put("trace.overhead_frac", one_pass(traced) / one_pass(untraced[: len(traced)]) - 1, "fraction")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def check_declared(metrics: dict, kind: str) -> None:
    """The reported metrics are exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(want.items()) ^ set(got.items()))}")


def main() -> int:
    args = parse_args()
    if not (SRC / "adorep" / "__init__.py").is_file():
        log(f"bench: no library sources at {SRC / 'adorep'}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"bench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        return 2
    runner = Runner(args.workload, args.seed)
    runner.warm_up()
    setup_s = scaled_setup_seconds()
    if args.setup_only:
        print(setup_s)
        return 0
    if not args.trace:
        setup_s = measure_setup(args, setup_s)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": workloads.combined_digest(runner.digests),
        "inputs": runner.digests,
    }))

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measured_passes(runner, args.seconds, tracer)
    report_times("untraced", untraced)
    log(f"  host speed: calibration loop {statistics.median(runner.speeds):.4f} s, reference {CALIBRATION_S} s")
    if traced:
        report_times("traced", traced)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tracer, untraced, traced)
    else:
        metrics = end_to_end(runner, untraced, setup_s)
    check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
