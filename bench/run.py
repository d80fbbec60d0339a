"""camatch benchmark: one closed-loop client driving camatch's public API.

Run from the repository root:

    python3 bench/run.py --workload allocate --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists): ``allocate`` (solve,
certify, derive an ordering, guided replay on 40x15 instances), ``audit``
(verify a dominated greedy matching on 80x30) and ``misreport`` (brute-force
misreport search for a1 on 10x5). Every operation gets a fresh seeded
instance; all inputs are generated and serialised before timing starts.

Each run executes the number of operations that takes ``--seconds`` at
nominal host speed on the seed code (fewer if a hard deadline hits), one at
a time, each followed by the host reference loop. Every time is reported
host-normalised: raw / adjacent reference * REF_NOMINAL_MS. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every second operation runs traced and the line holds the
per-layer metrics. Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

import hostref
import inputs
import ops
import spans as sp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MODULES = ("instance", "matching", "envy", "gsdt", "oracle")

# Normalised mean operation time of the seed code, in ms. A run does
# round(seconds / this) operations, so the operation set depends only on the
# workload, the seed and --seconds, never on host speed or code speed.
NOMINAL_OP_MS = {"allocate": 210.0, "audit": 230.0, "misreport": 62.0}
SETUP_REPEATS = 5
SETUP_CHUNKS = 8
DEADLINE_S = 150.0
# The reference loop runs after an operation once this many raw seconds of
# operations have run since the last one: after every operation on the
# seed code, every second or third on misreport's short searches.
REF_GAP_S = 0.1


class Modules:
    """camatch's modules, fetched after the last (re-)import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules[f"camatch.{name}"])


def import_camatch():
    """Import camatch from this checkout's ``src``; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "camatch", "__init__.py")):
        raise ImportError(f"no camatch package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    camatch = importlib.import_module("camatch")
    if not os.path.abspath(camatch.__file__).startswith(SRC + os.sep):
        raise ImportError(f"camatch imported from {camatch.__file__}, not {SRC}")
    return camatch


def purge_camatch() -> None:
    for name in [n for n in sys.modules if n == "camatch" or n.startswith("camatch.")]:
        del sys.modules[name]


def normalise(raw_s: float, ref_s: float) -> float:
    """Raw seconds -> ms at nominal host speed."""
    return raw_s / ref_s * hostref.REF_NOMINAL_MS


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 operations beyond it,
    capped at p90 (reached at 100 operations)."""
    return min(90, math.floor(100 * (1 - 10 / n))) if n > 10 else 100


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup(workload: str, op_inputs, tracer=None):
    """Import camatch afresh and parse every input text, SETUP_REPEATS
    times; return (median normalised seconds, parsed inputs, parse span
    scale). Each repeat starts from the same heap, and a reference loop runs
    between the import and each of SETUP_CHUNKS parse chunks. With a tracer
    the last repeat's parsing is traced."""
    chunk = max(1, math.ceil(len(op_inputs) / SETUP_CHUNKS))
    times = []
    parsed = None
    scale = None
    for rep in range(SETUP_REPEATS):
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        parsed = None
        purge_camatch()
        gc.collect()
        refs = [hostref.reference_seconds()]
        start = time.perf_counter()
        import_camatch()
        m = Modules()
        pieces = [time.perf_counter() - start]
        refs.append(hostref.reference_seconds())
        if traced:
            tracer.install()
        parsed = []
        for k in range(0, len(op_inputs), chunk):
            start = time.perf_counter()
            parsed.extend(ops.parse(m, workload, op) for op in op_inputs[k:k + chunk])
            pieces.append(time.perf_counter() - start)
            refs.append(hostref.reference_seconds())
        if traced:
            tracer.uninstall()
            scale = hostref.REF_NOMINAL_MS / statistics.mean(refs)
        times.append(sum(
            normalise(p, (refs[j] + refs[j + 1]) / 2) for j, p in enumerate(pieces)) / 1000)
    return statistics.median(times), parsed, scale


def run(args) -> dict:
    started = time.monotonic()
    camatch = import_camatch()
    # A traced run needs at least one traced and one untraced operation.
    count = max(2, round(args.seconds * 1000 / NOMINAL_OP_MS[args.workload]))
    op_inputs = inputs.generate(camatch, args.workload, args.seed, count)

    tracer = sp.Tracer() if args.trace else None
    setup_s, parsed, parse_scale = setup(args.workload, op_inputs, tracer)
    parse_spans = len(tracer.spans) if tracer else 0
    m = Modules()
    input_fp = inputs.fingerprint(parsed, op_inputs)
    fn = ops.OPS[args.workload]
    traced_fn = tracer.span("op", fn) if tracer else None

    gc.collect()
    gc.freeze()
    refs = [hostref.reference_seconds()]
    ref_at = [0]  # refs[k] ran just before operation ref_at[k]
    since_ref = 0.0
    raw: list[float] = []
    traced_flags: list[bool] = []
    failures: list[str] = []
    out_hash = hashlib.sha256()
    cert_hash = hashlib.sha256()
    for i, (inst, extra) in enumerate(parsed):
        if time.monotonic() - started > DEADLINE_S:
            break
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.op = i
        gc.collect()
        start = time.perf_counter()
        try:
            result = (traced_fn if traced else fn)(m, inst, extra)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result, error = None, f"op {i}: {exc!r}"
        else:
            error = None
        raw.append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
        since_ref += raw[-1]
        if since_ref >= REF_GAP_S:
            refs.append(hostref.reference_seconds())
            ref_at.append(i + 1)
            since_ref = 0.0
        traced_flags.append(traced)
        if error is None:
            try:
                ok, out_text, cert_text = ops.check(m, args.workload, inst, extra, result)
            except Exception as exc:  # noqa: BLE001 - a check that raises fails the op
                ok, out_text, cert_text = False, "", ""
                error = f"op {i}: check raised {exc!r}"
            else:
                if not ok:
                    error = f"op {i}: output check failed"
            out_hash.update(f"{i}|{out_text}\n".encode())
            cert_hash.update(f"{i}|{cert_text}\n".encode())
        if error is not None:
            failures.append(error)
            out_hash.update(f"{i}|FAILED\n".encode())

    done = len(raw)
    if ref_at[-1] != done:
        refs.append(hostref.reference_seconds())
        ref_at.append(done)
    ref_avg = [
        (refs[k] + refs[k + 1]) / 2
        for k in range(len(refs) - 1)
        for _ in range(ref_at[k], ref_at[k + 1])
    ]
    norm = [normalise(r, f) for r, f in zip(raw, ref_avg)]
    untraced = [i for i in range(done) if not traced_flags[i]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_planned": count,
        "attempted": done,
        "failed": len(failures),
        "failures": failures[:5],
        "inputs_fp": input_fp,
        "outputs_fp": out_hash.hexdigest()[:16],
        "certificates_fp": cert_hash.hexdigest()[:16] if args.workload == "audit" else None,
        "setup_s": setup_s,
        "norm": norm,
        "raw": raw,
        "refs": refs,
        "untraced": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(
            tracer, parse_spans, parse_scale, raw, ref_avg, traced_flags)
        write_spans(tracer, args)
    return report


def end_to_end(report) -> tuple[dict, int]:
    norm = [report["norm"][i] for i in report["untraced"]]
    p = tail_percentile(len(norm))
    return {
        "setup_s": (report["setup_s"], "s"),
        "ops_per_s": (len(norm) / (sum(norm) / 1000), "1/s"),
        "latency_p50_ms": (statistics.median(norm), "ms"),
        "latency_tail_ms": (percentile(norm, p), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }, p


def layer_metrics(tracer, parse_spans, parse_scale, raw, ref_avg, traced_flags):
    """Per-layer metrics: means per traced operation of normalised span
    times, plus host and tracing diagnostics from the untraced ones."""
    all_spans = tracer.spans
    selfs = sp.self_times(all_spans)
    ops_idx = [i for i, t in enumerate(traced_flags) if t]
    untraced = [i for i, t in enumerate(traced_flags) if not t]
    norm = [normalise(r, f) for r, f in zip(raw, ref_avg)]
    n = len(ops_idx)
    scale = {i: hostref.REF_NOMINAL_MS / ref_avg[i] for i in ops_idx}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list] = {}
    for k in range(parse_spans, len(all_spans)):
        s = all_spans[k]
        f = scale[s[sp.OP]]
        name = s[sp.NAME]
        if name == "gsdt.run_gsdt" and s[sp.ATTR] is not None:
            name = f"gsdt.run_gsdt.{s[sp.ATTR][0]}"
        total[name] = total.get(name, 0.0) + (s[sp.END] - s[sp.START]) * f
        own[s[sp.NAME]] = own.get(s[sp.NAME], 0.0) + selfs[k] * f
        calls[name] = calls.get(name, 0) + 1
        if s[sp.ATTR] is not None:
            attrs.setdefault(s[sp.NAME], []).append(s[sp.ATTR])

    parse_ms = sum(
        (s[sp.END] - s[sp.START]) * parse_scale for s in all_spans[:parse_spans])

    def per_op(table, name):
        return table.get(name, 0) / n

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    runs = attrs.get("gsdt.run_gsdt", [])
    probes = attrs.get("gsdt.find_augmenting_path", [])
    graphs = attrs.get("envy.build_envy_graph", [])
    traced_norm = [norm[i] for i in ops_idx]
    plain_norm = [norm[i] for i in untraced]
    raw_plain = [raw[i] * 1000 for i in untraced]
    op_total = total.get("op", 0.0)
    m = {
        "instance.parse_ms": (parse_ms / parse_spans if parse_spans else 0.0, "ms"),
        "matching.is_feasible_calls": (per_op(calls, "matching.is_feasible"), "count"),
        "matching.satisfy_coalition_ms": (per_op(total, "matching.satisfy_coalition"), "ms"),
        "envy.is_pareto_optimal_ms": (per_op(total, "envy.is_pareto_optimal"), "ms"),
        "envy.find_negative_cycle_ms": (per_op(total, "envy.find_negative_cycle"), "ms"),
        "envy.build_envy_graph_ms": (per_op(total, "envy.build_envy_graph"), "ms"),
        "envy.build_calls": (per_op(calls, "envy.build_envy_graph"), "count"),
        "envy.extract_self_ms": (per_op(own, "envy.extract_improving_coalition"), "ms"),
        "envy.graph_nodes": (mean([g[0] for g in graphs]), "count"),
        "envy.graph_arcs": (mean([g[1] for g in graphs]), "count"),
        "envy.witness_nodes": (
            mean([w for w in attrs.get("envy.find_negative_cycle", []) if w]), "count"),
        "envy.coalition_size": (
            mean([c for c in attrs.get("envy.is_pareto_optimal", []) if c]), "count"),
        "gsdt.run_canonical_ms": (
            per_op(total, "gsdt.run_gsdt.canonical"), "ms"),
        "gsdt.run_guided_ms": (per_op(total, "gsdt.run_gsdt.guided"), "ms"),
        "gsdt.find_augmenting_path_ms": (per_op(total, "gsdt.find_augmenting_path"), "ms"),
        "gsdt.check_ms": (per_op(total, "gsdt.check"), "ms"),
        "gsdt.run_self_ms": (per_op(own, "gsdt.run_gsdt"), "ms"),
        "gsdt.searches": (sum(r[1] for r in runs) / n, "count"),
        "gsdt.arc_visits": (sum(r[2] for r in runs) / n, "count"),
        "gsdt.probe_success_ratio": (
            sum(probes) / len(probes) if probes else 0.0, "ratio"),
        "gsdt.runs_per_op": (len(runs) / n, "count"),
        "gsdt.derive_ordering_self_ms": (per_op(own, "gsdt.derive_ordering"), "ms"),
        "oracle.misreport_ms": (per_op(total, "oracle.find_beneficial_misreport"), "ms"),
        "oracle.self_ms": (per_op(own, "oracle.find_beneficial_misreport"), "ms"),
        "oracle.lists_examined": (
            sum(attrs.get("oracle.find_beneficial_misreport", [])) / n, "count"),
        "host.ref_ms": (statistics.median(ref_avg) * 1000, "ms"),
        "host.raw_latency_p50_ms": (statistics.median(raw_plain), "ms"),
        "host.raw_ops_per_s": (len(raw_plain) / (sum(raw_plain) / 1000), "1/s"),
        "trace.overhead_ratio": (
            statistics.median(traced_norm) / statistics.median(plain_norm), "ratio"),
    }
    for name, _, _, _, _ in sp.TARGETS:
        if not name.startswith("instance."):
            m[f"share.{name}"] = (own.get(name, 0.0) / op_total, "ratio")
    m["share.op"] = (own.get("op", 0.0) / op_total, "ratio")
    # A metric whose span's function no longer exists is left out, not 0.
    for metric, (value, unit) in m.items():
        span = SPAN_OF.get(metric) or metric.removeprefix("share.")
        if span in tracer.missing:
            m[metric] = (None, unit)
    return {"metrics": m, "missing": sorted(tracer.missing)}


# The span each non-share per-layer metric is read from.
SPAN_OF = {
    "instance.parse_ms": "instance.parse_instance",
    "matching.is_feasible_calls": "matching.is_feasible",
    "matching.satisfy_coalition_ms": "matching.satisfy_coalition",
    "envy.is_pareto_optimal_ms": "envy.is_pareto_optimal",
    "envy.coalition_size": "envy.is_pareto_optimal",
    "envy.find_negative_cycle_ms": "envy.find_negative_cycle",
    "envy.witness_nodes": "envy.find_negative_cycle",
    "envy.build_envy_graph_ms": "envy.build_envy_graph",
    "envy.build_calls": "envy.build_envy_graph",
    "envy.graph_nodes": "envy.build_envy_graph",
    "envy.graph_arcs": "envy.build_envy_graph",
    "envy.extract_self_ms": "envy.extract_improving_coalition",
    "gsdt.run_canonical_ms": "gsdt.run_gsdt",
    "gsdt.run_guided_ms": "gsdt.run_gsdt",
    "gsdt.run_self_ms": "gsdt.run_gsdt",
    "gsdt.searches": "gsdt.run_gsdt",
    "gsdt.arc_visits": "gsdt.run_gsdt",
    "gsdt.runs_per_op": "gsdt.run_gsdt",
    "gsdt.find_augmenting_path_ms": "gsdt.find_augmenting_path",
    "gsdt.probe_success_ratio": "gsdt.find_augmenting_path",
    "gsdt.check_ms": "gsdt.check",
    "gsdt.derive_ordering_self_ms": "gsdt.derive_ordering",
    "oracle.misreport_ms": "oracle.find_beneficial_misreport",
    "oracle.self_ms": "oracle.find_beneficial_misreport",
    "oracle.lists_examined": "oracle.find_beneficial_misreport",
}


def write_spans(tracer, args) -> None:
    """Write the run's spans (times relative to the first span) as JSON."""
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
    t0 = tracer.spans[0][sp.START] if tracer.spans else 0.0
    with gzip.open(path, "wt") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s[0], round(s[1] - t0, 7), round(s[2] - t0, 7),
                                 s[3], s[4], s[5]]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        report = run(args)
    except ImportError as exc:
        print(f"bench: cannot import camatch: {exc}", file=sys.stderr)
        return 2
    if report["attempted"] == 0:
        print("bench: no operation ran before the deadline", file=sys.stderr)
        return 1

    done, failed = report["attempted"], report["failed"]
    print(f"workload={report['workload']} seed={report['seed']} "
          f"ops={done}/{report['ops_planned']} failed={failed}")
    print(f"fingerprints inputs={report['inputs_fp']} outputs={report['outputs_fp']}"
          + (f" certificates={report['certificates_fp']}"
             if report["certificates_fp"] else ""))
    for line in report["failures"]:
        print(f"failure: {line}")
    if args.trace:
        layers = report["layers"]
        metrics = {k: v for k, v in layers["metrics"].items() if v[0] is not None}
        if layers["missing"]:
            print("missing spans (function no longer exists): "
                  + " ".join(layers["missing"]))
    else:
        metrics, p = end_to_end(report)
        print(f"latency_tail_ms is p{p} of {len(report['untraced'])} operations")
        print(f"failed_ops_ratio {failed / done:.6f} ratio")
        raw = report["raw"]
        print(f"host.ref_ms {statistics.median(report['refs']) * 1000:.4f} ms  "
              f"host.raw_latency_p50_ms {statistics.median(raw) * 1000:.4f} ms  "
              f"host.raw_ops_per_s {len(raw) / sum(raw):.4f} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": done,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
