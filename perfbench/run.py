"""The stratacheck benchmark.

Run one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a checkout.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 measures the end-to-end metrics with no tracing.
--trace 1 runs every request twice, untraced and with the span recorder
installed; it reports the per-layer metrics and the tracing overhead, and
writes every span to perfbench/out/.  Each run
also appends its full record, with the environment, to
perfbench/out/results.jsonl.

Compare two result files (the parent's first):

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import cli_requests
import oracle
import stream
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
PYTHON = sys.executable
WORKLOADS = ("cli-verify-all", "cli-sections", "invariants-deep", "random-actions")
PROBE_INTERVAL_S = 0.5  # one set-up probe per half second of the run
RANDOM_BATCH = 1000  # requests per worker process; bounds its cache growth
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99, 90, 75)
TAIL_BEYOND = 10
# reported with every run but not bounded in BENCHMARK.json: the tail moves
# most with the machine's load, and the parts exist on invariants-deep only
UNBOUNDED_UNITS = {"request_s.tail": "s", "generators_s": "s", "relations_s": "s",
                   "isomorphism_s": "s"}


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    """The caller's environment, minus settings that change what a run costs.

    Children may write bytecode caches (under src/, ignored by git), as an
    installed package has them; the warm-up run fills them before timing.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def _communicate(proc, data: bytes) -> tuple[bytes, bytes]:
    """Feed stdin and drain stdout and stderr together, so no pipe fills up."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    view, sent = memoryview(data), 0
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        sel.register(proc.stdin, selectors.EVENT_WRITE)
        while sel.get_map():
            for key, _ in sel.select():
                pipe = key.fileobj
                if pipe is proc.stdin:
                    try:
                        sent += os.write(pipe.fileno(), view[sent:sent + 65536])
                    except BrokenPipeError:
                        sent = len(data)
                    if sent >= len(data):
                        sel.unregister(pipe)
                        pipe.close()
                    continue
                chunk = os.read(pipe.fileno(), 65536)
                if chunk:
                    chunks[pipe].append(chunk)
                else:
                    sel.unregister(pipe)
                    pipe.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(argv: list[str], data: bytes = b"") -> tuple[int, float, int, str, str]:
    """Run one child to completion: exit code, wall s, peak RSS KiB, stdout, stderr.

    The peak RSS comes from os.wait4 on that child alone.  A child that
    outlives CHILD_TIMEOUT_S is killed, which its caller sees as a failure.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out, err = _communicate(proc, data)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss,
            out.decode(errors="replace"), err.decode(errors="replace"))


class Unit:
    """One child process of a run: its request times and what it reported."""

    def __init__(self, times, failed, maxrss_kb, setup_s=None, trace=None, extra=None,
                 attempted=None):
        self.times = times
        self.attempted = len(times) if attempted is None else attempted
        self.failed = failed
        self.maxrss_kb = maxrss_kb
        self.setup_s = setup_s
        self.trace = trace
        self.extra = extra or {}


# ---------------------------------------------------------------------------
# workloads: make(i, traced) runs the i-th unit; the same i gives the same input


def cli_workload(workload: str, seed: int):
    plan = cli_requests.section_plan(seed) if workload == "cli-sections" else None
    report_path = OUT / "verify-all.json"
    reference: dict = {}

    def make(i: int, traced: bool) -> Unit:
        spans_path = OUT / "spans.json"
        prefix = ([PYTHON, str(BENCH / "traced_cli.py"), str(spans_path), str(i)]
                  if traced else [PYTHON, "-m", "stratacheck"])
        if plan is None:
            args = ["verify-all", "--strict", "--json", str(report_path)]
            report_path.unlink(missing_ok=True)
        else:
            request = plan[i % len(plan)]
            args = request["args"]
        spans_path.unlink(missing_ok=True)
        code, wall, rss, text, err = spawn(prefix + args)
        if plan is None:
            report = report_path.read_text() if report_path.exists() else ""
            ok = cli_requests.check_verify_all(code, text, err, report)
            # byte-identical across invocations, traced or not
            ok = ok and reference.setdefault("out", (text, report)) == (text, report)
        else:
            ok = cli_requests.check_section(request, code, text, err)
        trace = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        return Unit([wall], int(not ok), rss, trace=trace)

    def probe(i: int) -> tuple[float, bool]:
        """A fresh `python -m stratacheck --version`, which imports every module."""
        code, wall, _, text, err = spawn([PYTHON, "-m", "stratacheck", "--version"])
        return wall, code == 0 and not err and len(text.split()) == 1

    return make, probe


def worker_workload(workload: str, seed: int):
    batches: list[list] = []
    source = stream.Stream(seed)

    def job(i: int, **flags) -> bytes:
        job = {"workload": workload, **flags}
        if workload == "random-actions":
            while len(batches) <= i:
                batches.append(source.take(RANDOM_BATCH))
            job["requests"] = batches[i]
            job["request_base"] = i * RANDOM_BATCH
        else:
            job["request_base"] = i
        return json.dumps(job).encode()

    def make(i: int, traced: bool) -> Unit:
        code, _, _, out, err = spawn([PYTHON, str(BENCH / "worker.py")],
                                     job(i, trace=traced))
        size = len(batches[i]) if workload == "random-actions" else 1
        if code != 0:
            sys.stderr.write(f"worker failed with exit code {code}:\n{err}\n")
            return Unit([], size, 0, attempted=size)
        res = json.loads(out)
        if workload == "random-actions":
            failed = sum(not oracle.check(r, o) for r, o in zip(batches[i], res["outcomes"]))
            kinds = Counter(o[0] for o in res["outcomes"])
            extra = {"nonsaturated": kinds["nonsaturated"],
                     "quasi_reflection": kinds["quasi-reflection"]}
        else:
            failed = res["failed"]
            extra = res["parts"]
        return Unit(res["times"], failed, res["maxrss_kb"], setup_s=res["setup_s"],
                    trace=res.get("trace"), extra=extra)

    def probe(i: int) -> tuple[float, bool]:
        """A worker that imports the package, builds the i-th inputs and exits."""
        code, _, _, out, _ = spawn([PYTHON, str(BENCH / "worker.py")],
                                   job(i, trace=False, setup_only=True))
        return (json.loads(out)["setup_s"], True) if code == 0 else (0.0, False)

    return make, probe


def run_units(make, probe, seconds: float) -> tuple[list[Unit], list[tuple[float, bool]]]:
    """Closed loop: the next unit starts only after the previous one ended.

    Set-up probes are spread over the whole run, so that setup_s sees the
    same machine as the requests rather than its first half second.
    """
    units: list[Unit] = []
    probes: list[tuple[float, bool]] = []
    start = last_probe = perf_counter()
    while perf_counter() - start < seconds:
        units.append(make(len(units), False))
        if perf_counter() - last_probe >= PROBE_INTERVAL_S:
            probes.append(probe(len(units) - 1))
            last_probe = perf_counter()
    return units, probes


def run_pairs(make, seconds: float) -> tuple[list[Unit], list[Unit]]:
    """Each input once untraced and once traced, pair after pair.

    Pairing keeps slow drift of the machine out of the difference between
    the two, which is the tracing overhead; which side of a pair runs first
    alternates.
    """
    untraced: list[Unit] = []
    traced: list[Unit] = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        i = len(traced)
        for trace in (False, True) if i % 2 == 0 else (True, False):
            (traced if trace else untraced).append(make(i, trace))
    return untraced, traced


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, str, int]:
    """The highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles; with too few samples it falls back to the
    maximum.  Returns (value, label, samples beyond).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], f"p{p}", n - rank
    return ordered[-1], "max", 0


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(units: list[Unit], setup: list[float]) -> tuple[dict, dict]:
    times = [t for u in units for t in u.times]
    value, label, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "request_s.p50": statistics.median(times),
        "request_s.tail": value,
        "requests_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(u.maxrss_kb for u in units if u.times) / 1024,
    }
    notes = {
        "samples": len(times),
        "tail": f"{label}, {beyond} samples beyond, n={len(times)}",
        "setup_samples": len(setup),
        "processes": len(units),
    }
    parts = [u.extra for u in units if "generators_s" in u.extra]
    for key in ("generators_s", "relations_s", "isomorphism_s"):
        if parts:
            metrics[key] = statistics.median(p[key] for p in parts)
    if units and "nonsaturated" in units[0].extra:
        notes["first_batch_verdicts"] = units[0].extra
        notes["verdicts"] = dict(sum((Counter(u.extra) for u in units), Counter()))
    return metrics, notes


def per_layer(untraced: list[Unit], traced: list[Unit]) -> tuple[dict, dict]:
    requests = sum(len(u.times) for u in traced)
    procs = [u.trace for u in traced if u.trace is not None]
    by_name, by_layer, calls = tracer.layer_totals(procs)
    counts: Counter = sum((Counter(p["counts"]) for p in procs), Counter())
    wall = sum(t for u in traced for t in u.times)
    untraced_wall = sum(t for u in untraced for t in u.times)
    layered = sum(by_layer.values())
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer] / requests
        metrics[f"{layer}.calls"] = calls[layer] / requests
    for name in (
        "invariants.invariant_monomials",
        "invariants.invariant_generators",
        "invariants.binomial_relations",
        "invariants.presentations_isomorphic",
        "singularities.classify_quotient",
        "report.render_text",
        "report.render_json",
        "suite.run_section",
    ):
        metrics[f"{name}.self_s"] = by_name[name] / requests
    for name in (
        "invariants.monomials",
        "invariants.generators",
        "invariants.relations",
        "invariants.classes_checked",
        "invariants.nonsaturated",
        "singularities.group_elements",
        "singularities.quasi_reflection",
        "ledger.discrepancies",
        "report.bytes",
    ):
        metrics[name] = counts[name] / requests
    metrics["invariants.generators_per_monomial"] = (
        counts["invariants.generators"] / counts["invariants.monomials"]
        if counts["invariants.monomials"] else 0.0
    )
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in procs)
    metrics["trace.wall_s"] = wall / requests
    metrics["trace.overhead_s"] = (wall - untraced_wall) / requests
    metrics["trace.unattributed_s"] = (wall - layered) / requests
    notes = {
        "traced_requests": requests,
        "layer_share": {k: v / wall for k, v in sorted(by_layer.items())},
        "accounting": (
            f"traced wall {wall:.4f} s = layer self times {layered:.4f} s "
            f"+ unattributed {wall - layered:.4f} s (interpreter start, imports, "
            f"benchmark glue); untraced wall of the same requests "
            f"{untraced_wall:.4f} s, so tracing overhead {wall - untraced_wall:.4f} s"
        ),
    }
    return metrics, notes


def write_spans(path: Path, traced: list[Unit], summary: dict) -> None:
    with open(path, "w") as fh:
        for proc, unit in enumerate(traced):
            if unit.trace is None:
                continue
            for (sid, name, start, end, parent, request), self_s in tracer.self_times(
                unit.trace["spans"]
            ):
                fh.write(json.dumps({
                    "proc": proc, "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "self_s": self_s,
                }) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


# ---------------------------------------------------------------------------
# environment and output


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "machine_settings_changed": False,
    }


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def run(args) -> int:
    if not (ROOT / "src" / "stratacheck" / "__init__.py").exists():
        print(f"error: no stratacheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    cli = args.workload.startswith("cli-")
    make, probe = (cli_workload if cli else worker_workload)(args.workload, args.seed)
    spawn([PYTHON, "-m", "stratacheck", "--version"])  # byte-compile once
    probes: list[tuple[float, bool]] = []

    if args.trace:
        untraced, traced = run_pairs(make, args.seconds)
        if not any(u.trace for u in traced):
            print("error: no traced request returned spans", file=sys.stderr)
            return 1
        units = untraced + traced
        metrics, notes = per_layer(untraced, traced)
        names = spec["per_layer"]
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced, {
            "workload": args.workload, "seed": args.seed,
            "trace.wall_s": metrics["trace.wall_s"],
            "trace.overhead_s": metrics["trace.overhead_s"],
            **notes,
        })
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        units, probes = run_units(make, probe, args.seconds)
        setup = [s for s, ok in probes if ok]
        setup += [u.setup_s for u in units if u.setup_s is not None]
        metrics, notes = end_to_end(units, setup)
        names = spec["end_to_end"]

    if not any(u.times for u in units):
        print("error: no request completed", file=sys.stderr)
        return 1
    attempted = sum(u.attempted for u in units) + len(probes)
    failed = sum(u.failed for u in units) + sum(not ok for _, ok in probes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    unbounded = {k: {"value": v, "unit": UNBOUNDED_UNITS[k]}
                 for k, v in metrics.items() if k not in result["metrics"]}
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in unbounded.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (no bound)")
    print(f"failure_ratio = {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted)")
    for key, value in notes.items():
        print(f"{key}: {value}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes, **result,
              "unbounded": unbounded}
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def compare(base_path: str, new_path: str) -> int:
    """Per-workload, per-metric median deltas next to the parent's spread."""
    spec = load_spec()
    metric_info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        groups: dict = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for name, m in {**rec["metrics"], **rec.get("unbounded", {})}.items():
                groups.setdefault((rec["workload"], rec["trace"], name), []).append(m["value"])
        return groups

    base, new = load(base_path), load(new_path)
    print(f"{'workload':16} {'metric':46} {'base':>11} {'new':>11} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, _, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        delta = (n - b) / b if b else 0.0
        info = metric_info.get(name, {})
        worse = delta if info.get("better") == "lower" else -delta
        bound = info.get("bound")
        s = spread(base[key])
        if bound is None:
            verdict = "no bound"
        elif s > bound:
            verdict = "unresolved: parent spread exceeds bound"
        elif worse > bound:
            verdict = "REGRESSION"
        else:
            verdict = "within bound"
        print(f"{workload:16} {name:46} {b:11.5g} {n:11.5g} {delta:+8.2%} "
              f"{s:7.2%} {'' if bound is None else f'{bound:.0%}':>6}  {verdict} "
              f"(runs {len(base[key])}/{len(new[key])})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"),
                        help="file to which each run appends its record")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print deltas between two result files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
