"""Run one hklat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper|queries|basis|ladder --seed N \
        --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics: operations run in whole
blocks (a paper cycle, a queries or basis deck, a ladder cycle) until S
seconds have passed, and every time is reported in seconds of the reference
machine (see calibrate.py).  ``--trace 1`` runs a fixed, seeded list of operations twice, first
plain and then under the span recorder, and reports the per-layer metrics.
``--smoke`` shrinks a run to a quick check of the harness itself.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A wrong answer prints correct=false and
exits 1; a checkout without hklat's sources exits 2 and prints no result.
A full record, with the environment and every failure, is written to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("paper", "queries", "basis", "ladder")
SETUP_PROBES = 15
CALIBRATE_EVERY_S = 0.02  # operation time between two measurements of the host's speed
TRACE_DEADLINE_FACTOR = 4  # traced operations run slower; see README
TRACE_BLOCKS = {"queries": 6, "basis": 6}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fqf.form_init.calls": "count",
    "fqf.form_init.self_s": "s",
    "fqf.dsum.calls": "count",
    "fqf.value_counts.calls": "count",
    "fqf.value_counts.self_s": "s",
    "fqf.value_counts.elements": "count",
    "fqf.gauss_signature.calls": "count",
    "fqf.gauss_signature.self_s": "s",
    "fqf.even_lattice_exists_report.calls": "count",
    "fqf.even_lattice_exists_report.self_s": "s",
    "fqf.exists.reject.E1": "count",
    "fqf.exists.reject.E2": "count",
    "fqf.exists.reject.E3": "count",
    "fqf.exists.reject.E4": "count",
    "fqf.forms_isomorphic.calls": "count",
    "fqf.forms_isomorphic.self_s": "s",
    "fqf.self_s": "s",
    "exact.smith_normal_form.calls": "count",
    "exact.smith_normal_form.self_s": "s",
    "exact.signature_of_symmetric.calls": "count",
    "exact.signature_of_symmetric.self_s": "s",
    "exact.det_exact.calls": "count",
    "exact.self_s": "s",
    "lattices.discriminant_data.calls": "count",
    "lattices.discriminant_data.self_s": "s",
    "lattices.realize.calls": "count",
    "lattices.self_s": "s",
    "classify.recognize.calls": "count",
    "classify.recognize.self_s": "s",
    "classify.recognize.iso_tests": "count",
    "classify.recognize.hit_ratio": "ratio",
    "classify.embed_in_L.calls": "count",
    "classify.self_s": "s",
    "tables.self_s": "s",
    "involutions.self_s": "s",
    "fixedlocus.self_s": "s",
    "fixedlocus.hilb2_census.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hklat" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} holds no hklat sources (src/hklat) or goldens (tests/golden)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(BENCH))
    import hklat

    if Path(hklat.__file__).resolve().parent != ROOT / "src" / "hklat":
        print(f"error: imported hklat from {hklat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    rng = random.Random(args.seed)
    expected = workloads.load_expected(args.workload)
    workloads.warm_up(args.workload)
    # Keep the harness's own objects (expected outputs, the interpreter's
    # start-up state) out of the collector's scans during timed operations.
    gc.collect()
    gc.freeze()
    record = {}
    try:
        if args.trace:
            log, metrics = run_traced(args, rng, expected, record)
        else:
            log, setup = run_timed(args, rng, expected)
            record["setup_s_probes"] = setup
            metrics = end_to_end(args.workload, log, setup, record)
        correct = True
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        log, metrics, correct = OpLog(), {}, False
        record["wrong_answer"] = str(exc)
    failures = log.failure_records()
    # After the measurement: the environment runs git, a child process whose
    # memory would otherwise count towards the peak of paper's children.
    record.update(environment=environment(args), correct=correct, attempted=len(log),
                  failures=failures, metrics=metrics, samples=log.samples())
    write_record(args, record)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    kinds = sorted({f["kind"] for f in failures})
    print(f"{args.workload}: {len(log)} operations, {len(failures)} failed {kinds}")
    if len(log):
        print(f"failed_frac = {len(failures) / len(log):.6g} ratio")
    if "lat_tail_pct" in record:
        print(f"lat_tail_ms is the p{record['lat_tail_pct']} latency of {record['lat_samples']} "
              f"operations, {record['lat_beyond_tail']} beyond it")
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(log), 1),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


class OpLog:
    """What a run keeps of each operation: its label, wall time, the host's
    speed next to it and its failure, if any.  A repeated label is stored
    once and the numbers go to flat arrays, so that the log adds little to
    the session's memory, which peak_rss_mb measures."""

    def __init__(self):
        self.labels: dict[str, int] = {}
        self.label_ix, self.elapsed, self.speed = array("i"), array("d"), array("d")
        self.failures: dict[int, tuple[str, str]] = {}  # operation -> (kind, detail)
        self.child_rss_mb = 0.0

    def __len__(self) -> int:
        return len(self.elapsed)

    def add(self, op, outcome) -> None:
        if outcome.failure:
            self.failures[len(self)] = (outcome.failure, outcome.detail)
        self.label_ix.append(self.labels.setdefault(op.label, len(self.labels)))
        self.elapsed.append(outcome.elapsed)
        self.speed.append(math.nan if outcome.speed is None else outcome.speed)
        self.child_rss_mb = max(self.child_rss_mb, outcome.child_rss_mb)

    def failure_records(self) -> list[dict]:
        names = list(self.labels)
        return [{"op": i, "label": names[self.label_ix[i]], "kind": kind,
                 "elapsed_s": self.elapsed[i], "detail": detail}
                for i, (kind, detail) in sorted(self.failures.items())]

    def samples(self) -> list[list]:
        """[label, wall seconds, speed or None, failure kind or None] per operation."""
        names = list(self.labels)
        return [[names[ix], elapsed, None if math.isnan(speed) else speed,
                 self.failures.get(i, (None,))[0]]
                for i, (ix, elapsed, speed) in enumerate(zip(self.label_ix, self.elapsed, self.speed))]


# -- set-up ------------------------------------------------------------------------

def probe_setup(workload: str) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter until it reports ready, and
    the host's speed that the interpreter measured right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), "--setup", workload],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        speed = proc.stdout.readline()
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed, float(speed)


# -- timed run -----------------------------------------------------------------------

def run_timed(args, rng, expected):
    """Whole blocks of operations until ``args.seconds`` have passed, with the
    set-up probes spread over the run so that they sample the same host state
    as the operations; probe time does not count towards the run.  Every
    operation carries the host's speed measured next to it."""
    import calibrate
    import workloads

    deadline = workloads.DEADLINE_S[args.workload]
    probes = 1 if args.smoke else SETUP_PROBES
    setup = [probe_setup(args.workload)]
    log = OpLog()
    t0 = time.perf_counter()
    probing = since_calibration = 0.0
    calibrate.calibration()  # the first run in a process is slower
    speed = calibrate.speed()
    for block in workloads.blocks(args.workload, rng, expected, args.smoke):
        for op in block:
            outcome = workloads.execute(op, deadline)
            if outcome.speed is None:  # ran in this process, not in a child
                if since_calibration >= CALIBRATE_EVERY_S:
                    speed, since_calibration = calibrate.speed(), 0.0
                outcome.speed = speed
                since_calibration += outcome.elapsed
            log.add(op, outcome)
        measured = time.perf_counter() - t0 - probing
        if measured >= args.seconds:
            break
        if len(setup) < probes and measured >= len(setup) * args.seconds / probes:
            t1 = time.perf_counter()
            setup.append(probe_setup(args.workload))
            probing += time.perf_counter() - t1
    while len(setup) < probes:
        setup.append(probe_setup(args.workload))
    return log, setup


def end_to_end(workload: str, log: OpLog, setup: list, record: dict) -> dict:
    """The end-to-end metrics of a timed run, in seconds of the reference
    machine: every wall time is multiplied by the host's speed next to it."""
    import workloads
    from child import peak_rss_mb

    # Before the latency list below adds to the session's memory.
    peak_rss = log.child_rss_mb if workload == "paper" else peak_rss_mb()
    deadline = workloads.DEADLINE_S[workload]
    # A failed operation counts as having missed the deadline: its latency is
    # the deadline plus the time it took to fail.
    lat = sorted((elapsed + (deadline if i in log.failures else 0.0)) * speed
                 for i, (elapsed, speed) in enumerate(zip(log.elapsed, log.speed)))
    busy = sum(elapsed * speed for elapsed, speed in zip(log.elapsed, log.speed))
    pct = workloads.TAIL_PCT[workload]
    tail_ix = math.ceil(pct / 100 * len(lat)) - 1
    record.update(lat_tail_pct=pct, lat_samples=len(lat), lat_beyond_tail=len(lat) - tail_ix - 1)
    values = {
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "ops_per_s": (len(log) - len(log.failures)) / busy,
        "lat_p50_ms": 1000 * statistics.median(lat),
        "lat_tail_ms": 1000 * lat[tail_ix],
        "peak_rss_mb": peak_rss,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


# -- traced run ------------------------------------------------------------------------

def run_traced(args, rng, expected, record):
    """Run a fixed list of operations plain, then traced; return per-layer metrics.

    Operations that missed the deadline in the plain pass are not traced: the
    work they did before being stopped depends on machine speed, so their
    spans would make the counts irreproducible.
    """
    import workloads
    from spans import Recorder, Totals

    deadline = workloads.DEADLINE_S[args.workload]
    gen = workloads.blocks(args.workload, rng, expected, args.smoke)
    ops = [op for _ in range(1 if args.smoke else TRACE_BLOCKS.get(args.workload, 1))
           for op in next(gen)]
    plain = [workloads.execute(op, deadline) for op in ops]

    spans_dir = workloads.OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    totals, rec = Totals(), Recorder()
    traced = {}
    if args.workload != "paper":
        rec.install()
    try:
        for i, (op, p) in enumerate(zip(ops, plain)):
            if p.failure == "deadline":
                continue
            rec.op = i
            path = str(spans_dir / f"paper-{i}.bin") if args.workload == "paper" else None
            traced[i] = workloads.execute(op, TRACE_DEADLINE_FACTOR * deadline, path, i)
            if path and not traced[i].failure:
                totals.add(Recorder.load(path).totals())
    finally:
        rec.uninstall()
    missed = [i for i, o in traced.items() if o.failure == "deadline"]
    if args.workload != "paper":
        rec.dump(str(spans_dir / f"{args.workload}.bin"))
        totals = rec.totals(skip_ops=missed)
    both = [i for i in traced if i not in missed]
    overhead = (sum(traced[i].elapsed for i in both) / sum(plain[i].elapsed for i in both) - 1
                if both else 0.0)
    record.update(
        trace_ops=len(ops), trace_skipped=len(ops) - len(both), missing_spans=totals.missing,
        layer_self_s=totals.layer_self_s(), calls=dict(totals.calls), counts=dict(totals.counts))
    log = OpLog()
    for op, outcome in zip(ops, plain):
        log.add(op, outcome)
    return log, per_layer(totals, overhead)


def per_layer(totals, overhead: float) -> dict:
    layers = totals.layer_self_s()
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name == "trace.overhead_frac":
            values[name] = overhead
        elif name == "classify.recognize.hit_ratio":
            tests = totals.counts["classify.recognize.iso_tests"]
            values[name] = totals.counts["classify.recognize.iso_hits"] / tests if tests else 0.0
        elif stat == "calls":
            values[name] = totals.calls[base]
        elif stat == "self_s":
            values[name] = layers[base] if base in layers else totals.self_s[base]
        else:
            values[name] = totals.counts[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


# -- records ------------------------------------------------------------------------------

def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        top, _, head = git.stdout.partition("\n")
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    import workloads

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hklat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "deadline_s": workloads.DEADLINE_S[args.workload],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def write_record(args, record: dict) -> None:
    import workloads

    out = workloads.OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())
