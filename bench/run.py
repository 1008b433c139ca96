#!/usr/bin/env python3
"""Benchmark of fdek: one workload in one single-threaded process.

    python3 bench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Run it from the root of an fdek checkout; it imports fdek from ``src/``.
A run is a fixed number of whole rounds over the workload's generated
inputs, ``--seconds`` divided by the workload's nominal round time, so every
run of a workload does the same work whatever the speed of the code or the
machine.  Every operation is timed on its own; the first round's outputs
are checked against the benchmark's reference semantics and every later
round must repeat them exactly.  An operation may fail only if the workload
lists it in ``expected_failures`` and only with ``RecursionError``; any other
exception is a failed check.

The machine's speed moves by up to 1.7x in phases that last from seconds
to minutes.  So between operations the run times a fixed probe that does
not touch fdek, the benchmark's own reference evaluator on a fixed formula
and model, and divides each round's timings by that round's median probe
time over REFERENCE_PROBE_S (set-up by the run's): the end-to-end timings
read as at the machine's reference speed.  The unscaled figures are
printed alongside.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds: the traced rounds record spans around each call
into a layer (and make a few extra layer calls after the round), the spans
go to ``bench_out/``, the per-layer metrics are printed, and the difference
between the two kinds of round is reported as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Seconds one round of each workload took when the benchmark was written
# (see README.md); they turn --seconds into a fixed number of rounds.  At
# least MIN_ROUNDS rounds run, so that the inputs that appear twice a round
# and set the tail latency give 16 samples or more, and the eleventh
# largest lies inside their group rather than at its fastest end.
NOMINAL_ROUND_S = {"prove": 2.2, "oracle": 1.25, "scans": 4.0, "deep": 2.2}
MIN_ROUNDS = 8
SETUP_REPEATS = 3
OUT_DIR = "bench_out"

# The speed probe: four reference evaluations of a fixed 21-node formula on
# a fixed two-world model, taken whenever PROBE_EVERY_S has passed since the
# last one.  REFERENCE_PROBE_S is about the probe's median time on the
# machine described in README.md; it only fixes the scale.
PROBE_FORMULA = "(p | #~(p & p)) & p & (~(~p | p) | (p | p) | p)"
PROBE_MODEL = {"worlds": ["w0", "w1"], "rel": [["w0", "w0"], ["w0", "w1"]],
               "val": {"w0": {"p": "T"}, "w1": {"p": "B"}}}
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.25e-3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_workload(name: str, seed: int):
    """Import fdek from the checkout, generate the inputs and warm up."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fdek", "__init__.py")):
        raise SystemExit("bench: src/fdek not found; run from the root of an fdek checkout")
    sys.path.insert(0, src)
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    wl.warmup()
    return wl


def time_setup(args) -> float:
    """Median time from the start of a fresh process to its first timed
    verdict, over SETUP_REPEATS processes that set up and stop there."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.close()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


class SpeedProbe:
    """Times the fixed probe between operations.  Slowness is the median
    probe time, of a round or of the whole run, as a multiple of
    REFERENCE_PROBE_S: above 1 when the machine runs slow."""

    def __init__(self):
        import gen
        import reference as ref
        self._evaluate = ref.evaluate
        self._model = ref.RefModel(PROBE_MODEL)
        self._formula = gen.parse_text(PROBE_FORMULA)
        self.times: list[float] = []
        self._last = 0.0
        self._start = 0

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.measure()

    def measure(self) -> None:
        gc.disable()
        started = time.perf_counter()
        for _ in range(4):
            self._evaluate(self._model, self._formula)
        self._last = time.perf_counter()
        gc.enable()
        self.times.append(self._last - started)

    def close_round(self) -> float:
        """The slowness over the probes taken since the last call."""
        self.measure()
        slow = statistics.median(self.times[self._start:]) / REFERENCE_PROBE_S
        self._start = len(self.times)
        return slow

    def slowness(self) -> float:
        return statistics.median(self.times) / REFERENCE_PROBE_S


class Tally:
    """Latencies and busy time of the operations of one kind of round.

    Each round's latencies are divided by the round's slowness.  Throughput
    and median latency are taken per round and reported as the median over
    rounds, so a speed phase of the machine that covers a few rounds does
    not move them; the tail comes from all samples."""

    def __init__(self):
        self.samples: list[float] = []
        self.rounds: list[tuple[float, float]] = []   # (verdicts/s, p50 s) per round
        self.unscaled: list[float] = []               # verdicts/s per round
        self._start = 0

    def close_round(self, busy: float, slow: float) -> None:
        done = self.samples[self._start:]
        self.unscaled.append(len(done) / busy)
        self.samples[self._start:] = [x / slow for x in done]
        self.rounds.append((len(done) / busy * slow, statistics.median(done) / slow))
        self._start = len(self.samples)

    def summary(self) -> dict:
        from spans import latency_summary
        out = latency_summary(self.samples)
        out["verdicts_per_s"] = statistics.median(r[0] for r in self.rounds)
        out["p50_ms"] = statistics.median(r[1] for r in self.rounds) * 1e3
        out["unscaled_verdicts_per_s"] = statistics.median(self.unscaled)
        return out


def run(args) -> int:
    wl = load_workload(args.workload, args.seed)
    from spans import Tracer, layer_metrics
    from workloads import fixed_probe

    rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    tr = Tracer() if args.trace else None
    speed = SpeedProbe()
    plain, traced = Tally(), Tally()
    attempted = failed = 0
    failures: dict[str, str] = {}
    errors: list[str] = []
    first_pairs, first_prints = None, None
    counts, peak = None, [0]
    n = len(wl.ops)
    may_fail = getattr(wl, "expected_failures", frozenset())
    for r in range(rounds):
        t = tr if args.trace and r % 2 == 1 else None
        tally = traced if t is not None else plain
        outputs = [None] * n
        busy = 0.0
        for i in range(n):
            speed.maybe()
            started = time.perf_counter()
            try:
                if t is None:
                    out = wl.run(i, None)
                else:
                    with t.span("op." + wl.name, index=i):
                        out = wl.run(i, t)
            except Exception as exc:   # a failed operation is counted, not checked
                busy += time.perf_counter() - started
                failed += 1
                failures.setdefault(type(exc).__name__, str(exc)[:120])
                if i not in may_fail or not isinstance(exc, RecursionError):
                    errors.append(f"round {r + 1}: operation {i} raised "
                                  f"{type(exc).__name__}: {str(exc)[:120]}")
                continue
            elapsed = time.perf_counter() - started
            busy += elapsed
            tally.samples.append(elapsed)
            outputs[i] = out
        tally.close_round(busy, speed.close_round())
        attempted += n
        pairs = [(wl.ops[i], out) for i, out in enumerate(outputs) if out is not None]
        prints = [None if out is None else wl.fingerprint(out) for out in outputs]
        if first_prints is None:
            first_pairs, first_prints = pairs, prints
        elif prints != first_prints:
            errors.append(f"round {r + 1} differs from round 1 in "
                          f"{sum(a != b for a, b in zip(prints, first_prints))} outputs")
        if t is not None:
            wl.probe(t, pairs, peak)
            probe_counts = fixed_probe(t, peak)
            got = wl.counts(pairs) if hasattr(wl, "counts") else probe_counts
            if counts is not None and got != counts:
                errors.append(f"tableau counts differ between traced rounds: {got} vs {counts}")
            counts = got
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors += wl.check(first_pairs)

    for name, message in failures.items():
        print(f"failed operations raised {name}: {message}", file=sys.stderr)
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    base = plain.summary()
    slow = speed.slowness()
    print(f"workload {wl.name} seed {args.seed}: {rounds} rounds of {n} operations, "
          f"{attempted} attempted, {failed} failed, checks {'passed' if not errors else 'FAILED'}")
    print(f"latency: {base['samples']} samples, p50 {base['p50_ms']:.4f} ms"
          + (f", tail p{base['tail_percentile']:.2f} {base['tail_ms']:.4f} ms (10 samples beyond)"
             if "tail_ms" in base else ", too few samples for a tail"))
    print(f"speed probe: median {statistics.median(speed.times) * 1e3:.4f} ms over "
          f"{len(speed.times)} probes, {slow:.4f} x the reference {REFERENCE_PROBE_S * 1e3:g} ms; "
          f"unscaled {base['unscaled_verdicts_per_s']:.4f} verdicts/s, "
          f"scaled {base['verdicts_per_s']:.4f}")
    if args.trace:
        over = traced.summary()
        print(f"traced rounds: {over['verdicts_per_s']:.4f} verdicts/s, p50 {over['p50_ms']:.4f} ms;"
              f" plain rounds: {base['verdicts_per_s']:.4f} verdicts/s, p50 {base['p50_ms']:.4f} ms;"
              f" tracing overhead {100 * (base['verdicts_per_s'] / over['verdicts_per_s'] - 1):+.2f}%"
              f" in throughput, {100 * (over['p50_ms'] / base['p50_ms'] - 1):+.2f}% in p50")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.jsonl")
        tr.write(path)
        print(f"{len(tr.spans)} spans written to {path}")
        metrics = layer_metrics(tr, counts, peak[0])
    else:
        setup = time_setup(args)
        print(f"set-up: {setup:.4f} s unscaled, {setup / slow:.4f} s scaled")
        metrics = {
            "verdicts_per_s": {"value": base["verdicts_per_s"], "unit": "verdicts/s"},
            "latency_p50_ms": {"value": base["p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup / slow, "unit": "s"},
        }
        if "tail_ms" in base:
            metrics["latency_tail_ms"] = {"value": base["tail_ms"], "unit": "ms"}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        load_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
