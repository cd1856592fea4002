"""The benchmark's three workloads.  BENCHMARK.json declares
kernel-rounds and orbits; relations-r4 is run by hand.

Each workload has three steps, all driven through lndkit's public API:

  setup(lk, seed, pinned) -> state
      inputs built from the seed (timed as setup_s)
  run(lk, state) -> (outputs, samples)
      the fixed work, as a fixed sequence of samples; samples are their
      latencies in seconds, or None when the whole fixed work is the one
      sample
  check(lk, state, outputs, pinned) -> [(name, ok, detail), ...]
      every output verified, untimed

`lk` is the imported lndkit package.  Names are looked up on it at call
time, so the traced run's wrappers are seen.  The seed only shapes the
inputs: a diagonal rescaling of the variables for kernel-rounds and
relations-r4 (seed 0 is the unscaled bundled case), and for orbits the
block of samples.  Every iteration of a run gets the same inputs, so
that run.py can keep the fastest time of each piece of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

ROUNDS = 3
ORBIT_SAMPLES = 600
# Per-variable scale factors.  Small, so that coefficient growth, and
# with it the amount of work, stays close to the unscaled case.
SCALES = tuple(Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2"))


def _scales(seed: int, nvars: int) -> tuple[Fraction, ...]:
    """The seed's rescaling: none at seed 0."""
    if seed == 0:
        return (Fraction(1),) * nvars
    rng = random.Random(seed)
    return tuple(rng.choice(SCALES) for _ in range(nvars))


def _inverse_rescaling(lk, ring, scales):
    """phi^-1 for phi: y -> c_y * y, as a ring map of `ring`."""
    return lk.RingMap(
        ring, ring, [ring.var(n) * (1 / c) for n, c in zip(ring.variables, scales)]
    )


def basis_digest(polys) -> str:
    """SHA-256 over the exact terms, independent of lndkit's printer."""
    h = hashlib.sha256()
    for g in polys:
        terms = sorted((m, c.numerator, c.denominator) for m, c in g.term_dict().items())
        h.update(repr(terms).encode())
        h.update(b"\n")
    return h.hexdigest()


def _timed(samples: list, call, *args):
    """call(*args), with its latency appended to samples."""
    start = time.perf_counter()
    value = call(*args)
    samples.append(time.perf_counter() - start)
    return value


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), "" if ok else detail))


# -- kernel-rounds --------------------------------------------------------


class KernelRounds:
    """kernel_compute for 3 reference rounds on D conjugated by phi, then
    certification of Delta and DeltaPrime and `lndkit paper verify`."""

    name = "kernel-rounds"

    def setup(self, lk, seed, pinned):
        ctx = lk.builtin_context()
        ring = ctx.ring
        scales = _scales(seed, ring.nvars)
        inverse = _inverse_rescaling(lk, ring, scales)
        # D' = phi^-1 . D . phi, so ker D' = phi^-1(ker D)
        images = tuple(
            inverse(ctx.derivation.image(n)) * c for n, c in zip(ring.variables, scales)
        )
        derivation = lk.Derivation(ring, images)
        return {
            "seed": seed,
            "ctx": ctx,
            "scales": scales,
            "derivation": derivation,
            "slice": lk.Slice.of(derivation, "s", "x"),
        }

    def run(self, lk, state):
        ctx = state["ctx"]
        samples: list = []
        result = _timed(samples, lk.kernel_compute,
                        state["derivation"], state["slice"], ROUNDS)
        delta = _timed(samples, lk.kernel_compute,
                       ctx.quotient_derivation, ctx.quotient_slice, 5)
        delta_prime = _timed(samples, lk.kernel_compute,
                             ctx.folded_derivation, ctx.folded_slice, 5)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = _timed(samples, lk.cli.run, ["paper", "verify", "--format", "json"])
        outputs = {
            "result": result,
            "delta": delta,
            "delta_prime": delta_prime,
            "verify_code": code,
            "verify_text": out.getvalue(),
        }
        return outputs, samples

    def check(self, lk, state, outputs, pinned):
        checks: list = []
        ctx = state["ctx"]
        ring = ctx.ring
        result = outputs["result"]
        _check(checks, "counts", result.counts == tuple(pinned["counts"]),
               f"counts {result.counts}")
        # canonical text is a canonical form, so comparing texts compares
        # polynomials without parsing 41 large pinned ones
        want = pinned["round3_candidates"]
        scales = state["scales"]
        back = []
        for g in result.generators:
            terms = {}
            for m, c in g.term_dict().items():
                for scale, e in zip(scales, m):
                    c *= scale**e
                terms[m] = c
            back.append(lk.print_canonical(lk.Polynomial(ring, terms).primitive()))
        _check(checks, "candidates_match_pinned_up_to_rescaling",
               sorted(back) == sorted(want),
               "rescaled-back candidates differ from the pinned list")
        if state["seed"] == 0:
            _check(checks, "candidates_equal_pinned",
                   [lk.print_canonical(g) for g in result.generators] == want,
                   "unscaled candidates differ from the pinned list")
        for key, picture, target in (
            ("delta", "Delta", ctx.quotient_ring),
            ("delta_prime", "DeltaPrime", ctx.folded_ring),
        ):
            got = outputs[key]
            _check(checks, f"{picture}_confirmed",
                   got.stabilized and got.outcomes[-1].status is lk.KernelStatus.CONFIRMED,
                   f"{picture} not certified: counts {got.counts}")
            expected = [lk.parse_polynomial(t, target) for t in pinned[picture]]
            _check(checks, f"{picture}_generators",
                   len(got.generators) == len(expected)
                   and set(got.generators) == set(expected),
                   f"{picture} generators {[str(g) for g in got.generators]}")
        _check(checks, "verify_exit_code", outputs["verify_code"] == 0,
               f"exit code {outputs['verify_code']}")
        try:
            report = json.loads(outputs["verify_text"])
        except ValueError:
            report = {"passed": False, "checks": []}
        _check(checks, "verify_passed", report.get("passed") is True
               and len(report.get("checks", ())) == pinned["verify_checks"],
               "verify report did not pass")
        for item in report.get("checks", ()):
            _check(checks, f"verify:{item['name']}", item["status"] == "ok",
                   str(item.get("witness")))
        return checks


# -- relations-r4 ---------------------------------------------------------


class RelationsR4:
    """relation_ideal of the 41 round-3 candidates reduced modulo x: the
    first phase of reference round 4."""

    name = "relations-r4"

    def setup(self, lk, seed, pinned):
        ctx = lk.builtin_context()
        ring = ctx.ring
        inverse = _inverse_rescaling(lk, ring, _scales(seed, ring.nvars))
        candidates = [lk.parse_polynomial(t, ring) for t in pinned["round3_candidates"]]
        reduce_map = lk.RingMap.from_mapping(ring, ring, {"x": ring.zero()})
        # phi^-1 commutes with x -> 0, and as a ring automorphism it leaves
        # the relation ideal unchanged, so the pinned basis holds at every seed
        images = [inverse(reduce_map(g)) for g in candidates]
        return {"ctx": ctx, "candidates": candidates, "images": images}

    def run(self, lk, state):
        return {"relations": lk.relation_ideal(state["images"])}, None

    def check(self, lk, state, outputs, pinned):
        checks: list = []
        D = state["ctx"].derivation
        for i, g in enumerate(state["candidates"], start=1):
            _check(checks, f"candidate_{i}_invariant", D.apply(g).is_zero(),
                   f"D({g}) != 0")
        relations = outputs["relations"]
        gens = relations.generators
        _check(checks, "generator_count", len(gens) == pinned["relations_count"],
               f"{len(gens)} generators")
        images = state["images"]
        for i, rel in enumerate(gens, start=1):
            _check(checks, f"relation_{i}_vanishes",
                   relations.evaluate(rel, images).is_zero(),
                   f"relation {rel} does not vanish")
        _check(checks, "basis_digest", basis_digest(gens) == pinned["relations_digest"],
               "basis digest differs from the pinned one")
        return checks


# -- orbits ---------------------------------------------------------------


class Orbits:
    """random_suite(first + k, 1) for k = 0..599, where first = seed * 600:
    sample k of random_suite(first, 600), timed one sample at a time."""

    name = "orbits"

    def setup(self, lk, seed, pinned):
        lk.builtin_context()
        first = seed * ORBIT_SAMPLES
        return {"seeds": list(range(first, first + ORBIT_SAMPLES))}

    def run(self, lk, state):
        samples: list = []
        reports = [_timed(samples, lk.random_suite, s, 1) for s in state["seeds"]]
        return {"reports": reports}, samples

    def check(self, lk, state, outputs, pinned):
        checks: list = []
        for s, report in zip(state["seeds"], outputs["reports"]):
            for c in report.checks:
                _check(checks, f"sample_{s}:{c.name}", c.ok, str(c.witness))
        _check(checks, "sample_count", len(outputs["reports"]) == ORBIT_SAMPLES,
               f"{len(outputs['reports'])} reports")
        return checks


WORKLOADS = {w.name: w for w in (KernelRounds(), RelationsR4(), Orbits())}
