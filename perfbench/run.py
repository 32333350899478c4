"""Benchmark for thompson_sigma: four seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures `src/thompson_sigma` of that
checkout and exits with an error when there is none.

--trace 0  End-to-end metrics.  Set-up time is the median over fresh
           interpreters (`setup_probe.py`).  Then the workload runs window
           after window of rounds, closed loop with one client, until S
           seconds have passed.  Every op is checked outside its clock, and
           op times are speed-normalized (see `meter`).
--trace 1  Per-layer metrics.  A fixed number of rounds runs twice, round
           by round: untraced, then with a span around every call the
           benchmark makes into a layer.  Spans are kept in memory and
           written to .perfbench_out/ when the run ends.

The last stdout line is the result {"correct", "attempted", "failed",
"metrics"}; the line before it records the seed, the sha256 of the inputs
run, the latency sample count and every failure reason.  `correct` is false
when an op fails other than through a documented defect (see
`meter.KnownDefect`); `failed / attempted` is the failed fraction.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import program
from meter import CAL_REF_S, Meter
from spans import END, NAME, OP, PARENT, START, Recorder

OUT_DIR = program.ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh interpreters per run; one more runs first to compile bytecode


def measure_setup(name: str) -> float:
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(probe), name], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def input_rounds(workload, seed: int, digest):
    r = 0
    while True:
        inputs = workload.round_inputs(seed, r)
        digest.update(json.dumps(inputs).encode())
        yield inputs
        r += 1


def timed_run(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload.name)
    lib = program.Layers(workload.layers)
    program.check_loaded()
    workload.warm_up(lib)
    m = Meter(calibrate=True)
    digest = hashlib.sha256()
    rounds = 0
    marks = [0]  # len(m.timings) at each window end
    gc.collect()
    start = perf_counter()
    for inputs in input_rounds(workload, seed, digest):
        workload.run_round(lib, inputs, m)
        rounds += 1
        if rounds % workload.window_rounds == 0:
            marks.append(len(m.timings))
            if perf_counter() - start >= seconds:
                break
    wall = perf_counter() - start

    @functools.lru_cache(maxsize=None)
    def speed(j):  # the two calibrations before and the two after, over the reference
        return statistics.median(m.cal[max(0, j - 2) : j + 2] or m.cal) / CAL_REF_S

    norm = [(dt / speed(j), ok) for dt, j, ok in m.timings]
    throughputs = []
    for a, b in zip(marks, marks[1:]):
        window = norm[a:b]
        throughputs.append(sum(ok for _, ok in window) / sum(t for t, _ in window))
    latencies = [t for t, ok in norm if ok]
    raw = [dt for dt, _, ok in m.timings if ok]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_per_s": (statistics.median(throughputs), "ops/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    speeds = [speed(j) for j in range(len(m.cal) + 1)]
    info = {
        "rounds": rounds,
        "windows": len(throughputs),
        "latency_samples": len(latencies),
        "timed_s": sum(dt for dt, _, _ in m.timings),
        "wall_s": wall,
        "speed_factor_median": statistics.median(speeds),
        "speed_factor_range": [min(speeds), max(speeds)],
        "raw_throughput_ops_per_s": len(raw) / sum(dt for dt, _, _ in m.timings),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
    }
    return [m], metrics, info, digest.hexdigest(), None


def timed_round(workload, lib, inputs, m) -> float:
    t0 = perf_counter()
    workload.run_round(lib, inputs, m)
    return perf_counter() - t0


def traced_run(workload, seed: int):
    lib = program.Layers(workload.layers)
    program.check_loaded()
    workload.warm_up(lib)
    digest = hashlib.sha256()
    stream = input_rounds(workload, seed, digest)
    rounds = [next(stream) for _ in range(workload.trace_rounds)]
    rec = Recorder()
    traced_lib = program.Layers(workload.layers, rec)
    base, m = Meter(trace_extras=True), Meter(rec, trace_extras=True)
    # Each round runs untraced, then traced, so both see the same machine speed.
    untraced = traced = 0.0
    gc.collect()
    for inputs in rounds:
        untraced += timed_round(workload, lib, inputs, base)
        traced += timed_round(workload, traced_lib, inputs, m)
    metrics = layer_metrics(rec, m, traced, untraced)
    info = {"rounds": len(rounds), "spans": len(rec.spans), "traced_wall_s": traced, "untraced_wall_s": untraced}
    return [m, base], metrics, info, digest.hexdigest(), rec


def layer_metrics(rec, m, traced: float, untraced: float) -> dict:
    """Per-layer metrics of the traced pass; 0 where the workload makes no such call."""
    from thompson_sigma.words import DEFAULT_INDEX_CAP

    spans = rec.spans
    calls, self_s = rec.layer_totals()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def dur(s):
        return s[END] - s[START]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def mean_us(name):
        xs = by_name.get(name)
        return total(name) / len(xs) * 1e6 if xs else 0.0

    def per(num, den):
        return num / den if den else 0.0

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] is not None else None

    out = {
        "harness.self_s": (rec.uncovered(traced) + self_s.get("harness", 0.0), "s"),
        "harness.ops": (m.attempted, "count"),
        "trace.overhead": (traced / untraced, "ratio"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
    }
    for layer in program.LAYERS:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out[f"{layer}.share"] = (self_s.get(layer, 0.0) / traced, "ratio")

    # words: normal_form per length band (the op itself, not the checks' calls)
    nf = [s for s in by_name.get("words.normal_form", ()) if parent_name(s) == "harness.op"]
    sn = by_name.get("words.rewrite_to_seminormal", [])
    band_ms = {}
    for key, group in (("normal_form", nf), ("seminormal", sn)):
        for band in ("short", "mid", "long"):
            xs = [dur(s) * 1e3 for s in group if rec.op_tags.get(s[OP]) == band]
            band_ms[key, band] = statistics.median(xs) if xs else 0.0
            out[f"words.{key}_ms.{band}"] = (band_ms[key, band], "ms")
    nf_total = sum(dur(s) for s in nf)
    out["words.reduce_share"] = (1 - sum(dur(s) for s in sn) / nf_total if nf and sn else 0.0, "ratio")
    c = m.counts
    mid_len, long_len = per(c["_len.mid"], c["_n.mid"]), per(c["_len.long"], c["_n.long"])
    growth = 0.0
    if band_ms["normal_form", "mid"] and band_ms["normal_form", "long"]:
        growth = math.log(band_ms["normal_form", "long"] / band_ms["normal_form", "mid"]) / math.log(long_len / mid_len)
    out["words.growth_exponent"] = (growth, "ratio")
    for name in ("words.letters_in", "words.letters_out", "words.max_index"):
        out[name] = (c[name], "count")
    out["words.index_headroom"] = (DEFAULT_INDEX_CAP - c["words.max_index"], "count")

    out["plrep.us_per_letter"] = (per(total("plrep.evaluate_word"), c["_plrep.letters"]) * 1e6, "us")
    out["plrep.breakpoints_out"] = (c["plrep.breakpoints_out"], "count")
    out["plrep.max_denominator_bits"] = (c["plrep.max_denominator_bits"], "bits")
    out["lattices.enumerate_s"] = (total("lattices.enumerate_subgroups"), "s")
    out["lattices.enumerated"] = (c["lattices.enumerated"], "count")
    out["lattices.intersect_us"] = (mean_us("lattices.intersect_with_M"), "us")
    out["complexes.cells_us"] = (mean_us("complexes.cells_for_subgroup_F"), "us")
    out["complexes.d_bound_us"] = (mean_us("complexes.d_bound"), "us")
    out["complexes.case3_count"] = (c["complexes.case3_count"], "count")
    out["charspace.kernel_us"] = (mean_us("charspace.kernel_finiteness"), "us")
    out["charspace.not_fg_count"] = (c["charspace.not_fg_count"], "count")
    out["autos.orbit_us"] = (mean_us("autos.d_orbit"), "us")
    out["autos.orbit_points"] = (c["autos.orbit_points"], "count")
    series = sum(total(f"gradients.{k}_gradient_series") for k in ("rank", "deficiency", "chi_m"))
    out["gradients.row_us"] = (per(series, c["gradients.rows"]) * 1e6, "us")
    out["gradients.rows"] = (c["gradients.rows"], "count")

    # cli: main vs the same library calls made directly (children of harness.direct)
    main_by_op = {s[OP]: dur(s) for s in by_name.get("cli.main", ())}
    direct_by_op = defaultdict(float)
    for s in spans:
        if parent_name(s) == "harness.direct":
            direct_by_op[s[OP]] += dur(s)
    paired = [main_by_op[op] - lib for op, lib in direct_by_op.items() if op in main_by_op]
    out["cli.main_ms"] = (mean_us("cli.main") / 1e3, "ms")
    out["cli.overhead_ms"] = (statistics.fmean(paired) * 1e3 if paired else 0.0, "ms")
    for name in ("cli.stdout_bytes", "cli.exit1_count", "cli.exit2_count"):
        out[name] = (c[name], "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.put_on_path()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        meters, metrics, info, digest, rec = traced_run(workload, args.seed)
    else:
        meters, metrics, info, digest, rec = timed_run(workload, args.seed, args.seconds)
    m = meters[0]
    problems = [workload.final_check(meter) for meter in meters]
    unexpected = sum(meter.failed - meter.known for meter in meters)
    correct = unexpected == 0 and not any(problems)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": digest,
        **info,
        "attempted": m.attempted,
        "failed": m.failed,
        "failed_frac": m.failed / m.attempted,
        "known_defects": m.known,
        "failures": dict(m.reasons),
        "run_problems": [p for p in problems if p],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if rec is not None:
        rec.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl", {"workload": workload.name, "seed": args.seed, "inputs_sha256": digest})
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("# run " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
