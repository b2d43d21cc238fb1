"""Benchmark of the TreePi query pipeline, the sharded tier and v3 churn.

Run from the repository root::

    python3 pipebench/run.py --workload chem-read --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
workload untraced and then traced, each for half of ``--seconds``, prints
the per-layer metrics and the tracing overhead, and writes the spans to
``pipebench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the raw (unscaled) wall-clock figures and run details.
See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from steady import REF_NOMINAL_S, SetupClock, local_scales, percentile, time_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HASH_SEED = "0"
SETUPS = 3
#: Queries are timed by process CPU time when it is below their wall time.
#: Below this share of CPU in the queries' wall time their work has moved
#: out of the process, where that timing cannot see it, and the run fails.
MIN_QUERY_CPU_SHARE = 1 / 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Phase:
    """Per-operation timings of one timed loop."""

    def __init__(self) -> None:
        self.kinds = []
        self.raw = []
        self.cpu = []
        self.refs = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.columns_touched = []
        self.round_ends = []

    def scaled(self):
        """Drift-corrected op times, each multiplied by its local scale.

        A query counts the smaller of its wall and process CPU time.  On a
        shared machine a query's wall time also holds the time its threads
        waited for a core while other tenants ran, which no reference loop
        sees; on the sharded tier it swung the medians by 25-40% between
        otherwise equal runs.  The smaller figure drops those waits, and
        with them the program's own GIL and thread-start waits (reported
        as the per-layer ``query_wait_ms``), but keeps any gain from threads
        that really run in parallel.  :func:`cpu_timing_error` fails a run
        whose queries do work this cannot see.  Writes and compactions
        count wall time, so I/O waits stay in.
        """
        times = [
            min(wall, cpu) if kind == "query" else wall
            for kind, wall, cpu in zip(self.kinds, self.raw, self.cpu)
        ]
        return [t * s for t, s in zip(times, local_scales(self.refs))]

    def query_cpu_share(self):
        """Process CPU time over wall time, summed over the timed queries."""
        pairs = [(w, c) for k, w, c in zip(self.kinds, self.raw, self.cpu) if k == "query"]
        return sum(c for _, c in pairs) / sum(w for w, _ in pairs)

    def query_wait_ms(self):
        """Mean drift-corrected wall time a query spent beyond its CPU time."""
        return 1000.0 * statistics.mean(
            max(0.0, wall - cpu) * scale
            for kind, wall, cpu, scale in zip(
                self.kinds, self.raw, self.cpu, local_scales(self.refs)
            )
            if kind == "query"
        )

    def figures(self, times):
        """Latency and throughput figures from per-op ``times`` (seconds)."""
        queries = [t for k, t in zip(self.kinds, times) if k == "query"]
        writes = [t for k, t in zip(self.kinds, times) if k in ("insert", "delete")]
        out = {
            "query_p50_ms": 1000.0 * statistics.median(queries),
            "query_p90_ms": 1000.0 * percentile(queries, 90),
            "query_p95_ms": 1000.0 * percentile(queries, 95),
            "query_p99_ms": 1000.0 * percentile(queries, 99),
            "ops_per_s": len(times) / sum(times),
        }
        if writes:
            out["write_ops_per_s"] = len(writes) / sum(writes)
        return out


def timed_loop(workload, server, seconds, state, tracer=None):
    """Repeat whole rounds until ``seconds`` of wall time have passed.

    Only the operation calls are timed; the reference sample, the
    property checks and the bookkeeping run between them.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        for slot, op in enumerate(workload.round_ops(state["round"])):
            if op.kind == "compact":
                phase.columns_touched.append(workload.columns_touched(server))
            if tracer is not None:
                tracer.op_id = state["op"]
                root = tracer.begin("op." + op.kind)
            error = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = workload.run_op(server, op)
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            phase.cpu.append(time.process_time() - c0)
            if tracer is not None:
                tracer.end(root)
            phase.refs.append(time_reference())
            phase.kinds.append(op.kind)
            phase.raw.append(elapsed)
            phase.attempted += 1
            state["op"] += 1
            if error is not None:
                phase.failed += 1
                state["errors"].append(f"{op}: raised {error}")
                continue
            try:
                problems = workload.check(op, result)
            except Exception:
                problems = [f"check raised {traceback.format_exc(limit=3)}"]
            if (state["round"], slot) in state["oracle_at"]:
                state["oracle"].append(
                    (workload.queries[op.arg].graph, dict(workload.live), result,
                     bool(problems))
                )
            workload.apply(op, result)
            if problems:
                phase.failed += 1
                state["wrong"] += 1
                state["errors"].extend(f"{op}: {p}" for p in problems)
        phase.rounds += 1
        phase.round_ends.append(len(phase.raw))
        state["round"] += 1
        if time.perf_counter() >= deadline:
            return phase


def measure(args, out_dir, listed):
    """Set up, warm up, run the timed loop(s), check, and compute metrics."""
    # Imported here: they import repro, which main() puts on sys.path.
    from workloads import (
        ORACLE_ROUNDS, ORACLE_SAMPLES, WORKLOADS, capturing_builds, oracle_errors,
    )

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    setups = []
    server = None
    for k in range(SETUPS):
        clock = SetupClock()
        with capturing_builds() as built, clock.running():
            candidate = workload.setup(k)
        if server is not None:
            workload.discard(server)
        server, workload.built = candidate, built
        setups.append(clock)
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []

    for query in workload.warm_queries():
        server.query(query.graph)

    # A seeded sample of query slots of the first rounds, checked in every
    # timed phase that reaches them.
    rng = random.Random(args.seed * 7 + 9)
    oracle_at = set()
    for r in ORACLE_ROUNDS:
        slots = [i for i, op in enumerate(workload.round_ops(r)) if op.kind == "query"]
        oracle_at.update((r, i) for i in rng.sample(slots, ORACLE_SAMPLES))
    state = {
        "round": 0,
        "op": 0,
        "errors": [],
        "wrong": 0,
        "oracle": [],
        "oracle_at": oracle_at,
    }
    before = engine_stats(server)
    if tracer is not None:
        untraced = timed_loop(workload, server, args.seconds / 2, state)
        # The traced phase replays the same rounds from the first one.
        state["round"] = 0
        tracer.install()
        traced = timed_loop(workload, server, args.seconds / 2, state, tracer)
        tracer.uninstall()
        phases = [untraced, traced]
    else:
        phases = [timed_loop(workload, server, args.seconds, state)]
    after = engine_stats(server)
    for phase in phases:
        error = cpu_timing_error(phase)
        if error is not None:
            sys.exit(f"error: {error}")

    oracle_failures = 0
    for query, snapshot, result, counted in state["oracle"]:
        problems = oracle_errors(query, snapshot, result)
        if problems:
            oracle_failures += not counted
            state["wrong"] += not counted
            state["errors"].extend(problems)

    first = phases[0]
    scaled = first.figures(first.scaled())
    raw = first.figures(first.raw)
    values = dict(
        scaled,
        setup_s=statistics.median(c.scaled_s for c in setups),
        index_bytes=workload.index_bytes(server),
        disk_bytes=workload.disk_bytes(),
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [p.rounds for p in phases],
        "raw": dict(raw, setup_s=statistics.median(c.raw_s for c in setups)),
        "scaled": dict(scaled, setup_s=values["setup_s"]),
        "setup_raw_s": [c.raw_s for c in setups],
        "ref_ms_median": 1000.0 * statistics.median(first.refs),
        "query_cpu_share": first.query_cpu_share(),
        "query_wait_ms": first.query_wait_ms(),
        "queries_timed": first.kinds.count("query"),
        "oracle_checked": len(state["oracle"]),
        "cache_hit_share": hit_share(before, after),
        "index_bytes": values["index_bytes"],
        "disk_bytes": values["disk_bytes"],
        "errors": state["errors"][:10],
    }
    if tracer is not None:
        setup_scale = REF_NOMINAL_S / statistics.median(
            r for c in setups for r in c.refs
        )
        values.update(
            layer_values(workload, setups, setup_spans, setup_scale, tracer.spans,
                         phases, before, after)
        )
        trace_path = out_dir.parent / f"trace-{args.workload}-s{args.seed}.ndjson"
        tracer.dump(setup_spans + tracer.spans, str(trace_path))
        detail["trace_file"] = str(trace_path.relative_to(HERE.parent))
    print(json.dumps(detail))
    return {
        "correct": state["wrong"] == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + oracle_failures,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def child_pids():
    """Ids of the live processes whose parent is this one."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat_file:
                stat = stat_file.read()
        except OSError:
            continue
        # Fields after the command name: state, parent id, ...
        if stat[stat.rindex(")") + 2:].split()[1] == me:
            children.append(int(entry))
    return children


def cpu_timing_error(phase):
    """Why this process's CPU time would miss work of the timed queries."""
    children = child_pids()
    if children:
        return (f"the program runs child processes {children[:5]}, whose CPU "
                "time the query timing does not count")
    share = phase.query_cpu_share()
    if share < MIN_QUERY_CPU_SHARE:
        return (f"the timed queries used process CPU for {share:.0%} of their "
                "wall time: their work runs where the query timing cannot see it")
    return None


def engine_stats(server):
    """Cache and invalidation counters of a single engine, else None."""
    from repro.core import QueryEngine

    return server.stats if isinstance(server, QueryEngine) else None


def hit_share(before, after):
    if before is None:
        return 0.0
    queries = after.queries - before.queries
    return (after.cache_hits - before.cache_hits) / queries if queries else 0.0


def layer_values(workload, setups, setup_spans, setup_scale, spans, phases, before, after):
    """Per-layer figures: set-up spans, the traced phase, and the untraced
    phase for the figures tracing would distort."""
    from tracing import layer_metrics

    untraced, traced = phases
    scale = REF_NOMINAL_S / statistics.median(traced.refs)
    out = layer_metrics(spans, traced.kinds.count("query"), traced.rounds, scale)

    def durations(name):
        return [setup_scale * (s[2] - s[1]) for s in setup_spans if s[0] == name]

    build_s = durations("mining.build")
    per_setup = len(build_s) // len(setups)
    saves = durations("segments.save")
    opens = durations("segments.open")
    fast = untraced.figures(untraced.scaled())
    # Overhead over the same rounds: the untraced prefix the traced phase replayed.
    shared = min(untraced.rounds, traced.rounds) - 1
    ops = untraced.round_ends[shared]
    untraced_rate = ops / sum(untraced.scaled()[:ops])
    traced_rate = ops / sum(traced.scaled()[:ops])
    rounds = untraced.rounds + traced.rounds
    out.update({
        "mining.build_s": statistics.median(
            sum(build_s[k * per_setup:(k + 1) * per_setup]) for k in range(len(setups))
        ),
        "mining.features": sum(ix.feature_count() for ix in workload.built),
        "mining.center_locations": sum(
            ix.stats.total_center_locations for ix in workload.built
        ),
        "engine.cache_hit_ratio": hit_share(before, after),
        "engine.invalidations": (
            (after.invalidations - before.invalidations) / rounds if before else 0.0
        ),
        "segments.save_s": statistics.median(saves) if saves else 0.0,
        "segments.cold_open_ms": 1000.0 * statistics.median(opens) if opens else 0.0,
        "segments.columns_touched": (
            statistics.mean(traced.columns_touched) if traced.columns_touched else 0.0
        ),
        "query_p99_ms": fast["query_p99_ms"],
        "query_wait_ms": untraced.query_wait_ms(),
        "write_ops_per_s": fast.get("write_ops_per_s", 0.0),
        "trace.ops_per_s_untraced": untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
    })
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec_path = HERE.parent / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC} holds no repro package or {spec_path.name} is missing; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], env)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; pick one of {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = HERE / "out" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, out_dir, spec["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
