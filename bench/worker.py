"""One workload in one fresh process; started by run.py, never by hand.

``--role setup`` builds the workload's inputs once and reports how long
that took from the start of this process.  ``--role run`` also warms up,
repeats whole rounds of the workload's items for ``--seconds``, checks
every output, and with ``--trace 1`` adds one traced round.  Either role
prints one JSON object on its last line of standard output.
"""

import time

T0 = time.perf_counter()  # before bracketlab is imported: setup_s counts the import

import argparse
import json
import resource
import signal
import statistics
import sys

MIN_ROUNDS = 3
# A machine shared with other tenants can change speed by tens of percent
# within a second, and a program's time moves with the time of a fixed
# pure-Python loop run next to it.  So each timed call is scaled by
# NOMINAL_REFERENCE_S / (mean time of that loop around and during the
# call): timed metrics read as seconds on a machine where the loop takes
# NOMINAL_REFERENCE_S.  Raw seconds are reported beside them.
REFERENCE_ITERATIONS = 50_000
NOMINAL_REFERENCE_S = 0.005
# During a call the loop runs from a SIGALRM handler this often; its time
# is taken off the call's time.
SAMPLE_INTERVAL_S = 0.2


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the speed of the machine right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Reference-loop times taken before, during and after one timed call.

    With ``during=False`` (traced rounds, whose spans would absorb the
    handler's time) only the loops before and after the call run.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples = []
        self.inside_s = 0.0  # time the handler took from the call

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.inside_s += time.perf_counter() - start

    def time_call(self, fn, *args):
        """(result, seconds) of fn(*args), not counting the probe's own loops."""
        self.samples.append(reference_loop())
        if self.during:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start - self.inside_s
            self.samples.append(reference_loop())
        return result, seconds

    @property
    def reference_s(self) -> float:
        return statistics.fmean(self.samples)


def run_item(item, tracer=None):
    """Build fresh inputs, time the computation with a speed probe, check it.

    Returns (seconds, reference seconds, problems found by the checks, error).
    An operation that raised is failed, not wrong: error says why.
    """
    inputs = item.build()
    probe = SpeedProbe(during=tracer is None)
    try:
        output, seconds = probe.time_call(item.compute, inputs, tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        return 0.0, probe.reference_s, [], f"{item.name}: {type(exc).__name__}: {exc}"
    if tracer:
        tracer.active = False
    problems = item.check(output)
    if tracer:
        tracer.active = True
    return seconds, probe.reference_s, problems, None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    import workloads

    items = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0
    reference = [reference_loop() for _ in range(3)]
    setup = {"setup_raw_s": setup_s, "setup_s": setup_s * NOMINAL_REFERENCE_S / statistics.median(reference)}
    if args.role == "setup":
        print(json.dumps(setup))
        return 0

    if args.smoke:
        items = items[:1]
    problems = []
    if args.workload == "khovanov":
        problems += workloads.khovanov_self_test()
    problems += run_item(items[0])[2]  # warm-up: the smallest item once, untimed

    raw = {item.name: [] for item in items}
    scaled = {item.name: [] for item in items}
    errors = []
    attempted = rounds = 0
    deadline = time.perf_counter() + (0 if args.smoke else args.seconds)
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    while rounds < min_rounds or time.perf_counter() < deadline:
        for item in items:
            seconds, ref, item_problems, error = run_item(item)
            attempted += 1
            problems += item_problems
            if error:
                errors.append(error)
            else:
                raw[item.name].append(seconds)
                scaled[item.name].append(seconds * NOMINAL_REFERENCE_S / ref)
                reference.append(ref)
        rounds += 1

    def median_sum(samples):
        return sum(statistics.median(ts) for ts in samples.values() if ts)

    result = {
        **setup,
        "wall_s": median_sum(scaled),
        "raw_wall_s": median_sum(raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_loop_s": statistics.median(reference),
        "rounds": rounds,
        "item_times_s": raw,
        "item_scaled_s": scaled,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
    }
    if args.trace:
        result["layers"] = traced_round(items, result["raw_wall_s"], problems)
    print(json.dumps(result))
    return 0


def traced_round(items, untraced_wall_s: float, problems: list) -> dict:
    """One round with spans around every layer; builds are traced too.

    Its outputs are checked like any other; problems found go to ``problems``.
    """
    import tracer as tracing
    import workloads

    t = tracing.Tracer()
    t.install(callers=[workloads])
    traced = 0.0
    try:
        t.active = True
        for index, item in enumerate(items):
            t.item = index
            seconds, _, item_problems, _ = run_item(item, t)
            problems += item_problems
            traced += seconds
        t.active = False
    finally:
        t.uninstall()
    metrics = tracing.layer_metrics(t)
    metrics.update({
        "trace.spans": len(t.spans),
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced_wall_s,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
