"""In-process workloads: one worker process per invariants-deep pass or
random-actions batch.

Usage: python3 perfbench/worker.py < JOB.json > RESULT.json

The parent writes the job (workload, generated inputs, whether to trace, or
only to set up) to standard input and reads the result from standard output.  A fresh process per pass makes every timed call of
invariants-deep cold, that is the first call with its inputs in the process.
Timing covers only the calls into stratacheck; checks run after the timed
loop.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import stream
from tracer import ROOT, Tracer

TRIPLE_WEIGHTS = (
    (1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0),
    (0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1, -1),
)
Z2Z2_FACTORS = ((2, (0, 0, 1, 1, 1, 1)), (2, (1, 1, 0, 0, 1, 1)))
SWAP_TRIPLE = (7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4)
DEEP_BOUNDS = (6, 7, 8)
DEEP_RELATION_BOUND = 10
DEEP_ISOMORPHISM_DEGREE = 6


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _degree_histogram(generators) -> dict:
    hist: dict = {}
    for g in generators:
        hist[sum(g)] = hist.get(sum(g), 0) + 1
    return hist


def deep_pass(job, tracer):
    start = perf_counter()
    from stratacheck import invariants

    triple = invariants.DiagonalAction(12, TRIPLE_WEIGHTS)
    z2z2 = invariants.DiagonalAction(6, (), Z2Z2_FACTORS)
    swap = invariants.CoordinateInvolution(SWAP_TRIPLE)
    setup_s = perf_counter() - start
    if job.get("setup_only"):
        return {"setup_s": setup_s}

    if tracer is not None:
        tracer.request = job["request_base"]

    def timed(fn):
        t = perf_counter()
        result = fn() if tracer is None else tracer.span(ROOT, fn)
        return result, perf_counter() - t

    def isomorphism():
        fixed = invariants.fixed_locus_presentation(
            triple, gens[0], swap, DEEP_ISOMORPHISM_DEGREE
        )
        target = invariants.invariant_generators(z2z2, 4)
        return invariants.presentations_isomorphic(
            fixed, target, invariants.match_generators(fixed, target),
            DEEP_ISOMORPHISM_DEGREE,
        )

    gens, generators_s = timed(
        lambda: [invariants.invariant_generators(triple, b) for b in DEEP_BOUNDS]
    )
    rels, relations_s = timed(
        lambda: invariants.binomial_relations(gens[0], DEEP_RELATION_BOUND)
    )
    iso, isomorphism_s = timed(isomorphism)
    maxrss = _maxrss_kb()

    checks = {
        "generators": all(
            len(g.generators) == 28 and _degree_histogram(g.generators) == {2: 12, 3: 16}
            for g in gens
        ),
        "relations": len(rels) == 133,
        "isomorphic": iso.isomorphic is True,
    }
    return {
        "setup_s": setup_s,
        "times": [generators_s + relations_s + isomorphism_s],
        "parts": {
            "generators_s": generators_s,
            "relations_s": relations_s,
            "isomorphism_s": isomorphism_s,
        },
        "failed": 0 if all(checks.values()) else 1,
        "checks": checks,
        "maxrss_kb": maxrss,
    }


def _expand(generators, genexp) -> tuple:
    out = [0] * len(generators[0])
    for e, g in zip(genexp, generators):
        for i, x in enumerate(g):
            out[i] += e * x
    return tuple(out)


def random_batch(job, tracer):
    start = perf_counter()
    from stratacheck import invariants, singularities
    from stratacheck.errors import NonSaturationError, QuasiReflectionError

    def build(request):
        if request[0] == "action":
            _, n, torus, finite = request
            return invariants.DiagonalAction(
                n, tuple(map(tuple, torus)), tuple((m, tuple(w)) for m, w in finite)
            )
        return singularities.FiniteDiagonalGroup(
            tuple(singularities.CyclicDiagonalElement(order, tuple(exps))
                  for order, exps in request[1])
        )

    inputs = [build(r) for r in job["requests"]]
    setup_s = perf_counter() - start
    if job.get("setup_only"):
        return {"setup_s": setup_s}

    def serve_action(action):
        try:
            gens = invariants.invariant_generators(action, stream.BOUND)
        except NonSaturationError as exc:
            return exc
        return invariants.toric_relations(action, gens, stream.RELATION_BOUND)

    def serve_group(group):
        try:
            cls = singularities.classify_quotient(group)
        except QuasiReflectionError as exc:
            return exc
        return cls, singularities.symplectic_resolution_verdict(cls)

    times = []
    raw = []
    loop_start = perf_counter()
    for i, obj in enumerate(inputs):
        serve = serve_action if isinstance(obj, invariants.DiagonalAction) else serve_group
        if tracer is not None:
            tracer.request = job["request_base"] + i
        t = perf_counter()
        try:
            result = serve(obj) if tracer is None else tracer.span(ROOT, serve, obj)
        except Exception as exc:  # a crash is a failed request, not a dead run
            result = ("error", f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t)
        raw.append(result)
    loop_s = perf_counter() - loop_start
    maxrss = _maxrss_kb()

    outcomes = []
    for result in raw:
        if isinstance(result, NonSaturationError):
            outcomes.append(["nonsaturated", list(result.witness)])
        elif isinstance(result, QuasiReflectionError):
            outcomes.append(["quasi-reflection"])
        elif isinstance(result, invariants.MonoidPresentation):
            gens = result.generators
            identities = all(
                u != v and _expand(gens, u) == _expand(gens, v)
                for u, v in result.relations
            )
            outcomes.append(["saturated", [list(g) for g in gens], identities])
        elif isinstance(result, tuple) and result[0] == "error":
            outcomes.append(list(result))
        else:
            cls, verdict = result
            outcomes.append([cls.value, verdict.verdict])
    return {
        "setup_s": setup_s,
        "times": times,
        "loop_s": loop_s,
        "outcomes": outcomes,
        "maxrss_kb": maxrss,
    }


def main() -> int:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    run = deep_pass if job["workload"] == "invariants-deep" else random_batch
    result = run(job, tracer)
    if tracer is not None:
        result["trace"] = tracer.export()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
