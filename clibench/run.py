"""CLI benchmark of jumploci: replays each workload's reports through
`jumploci.cli.main`, one forked child per report, and checks every output.

    python3 clibench/run.py --workload enum-prime --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the sources are imported from
`src/`).  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = ".clibench_work"
SETUP_SAMPLES = 21
RUN_LIMIT_S = 140.0  # start no report past this, to end within 180 s
PROBE_EVERY_S = 0.05  # host-speed probes between reports, at most this often
# How strongly report and import times follow the host probe: the slope of
# log(time) against log(probe time), fitted over runs on the VM the bounds
# were set on (see README.md, "Host scaling").
HOST_ELASTICITY = 0.65
IMPORT_SAMPLE = ("import time; from probe import host_probe; before = host_probe(); "
                 "t = time.perf_counter(); import jumploci.cli; "
                 "took = time.perf_counter() - t; print(took, before, host_probe())")


def pin_to_one_cpu():
    """Keep the parent, its probes and every report on one CPU, so that all
    of them meet the same contention; children inherit the affinity.  The
    highest-numbered allowed CPU is used, so repeated runs pick the same."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def measure_setup():
    """Times to import jumploci.cli in fresh interpreters, after one warm-up
    import that fills the bytecode cache.  Each sample also times the host
    probe just before and just after its import, in the same interpreter;
    returns (import s, probe before s, probe after s) per sample."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    cmd = [sys.executable, "-c", IMPORT_SAMPLE]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        if i:
            samples.append(tuple(map(float, out.stdout.split())))
    return samples


class Replay:
    """Results of replaying reports: latencies, points, RSS and failures."""

    def __init__(self, expected, inputs):
        self.expected = expected
        self.inputs = inputs
        self.by_report = {}  # rid -> latencies of its rounds
        self.points = {}  # rid -> nominal points of one replay
        self.rss_kb = 0
        self.attempted = 0
        self.failures = Counter()
        self.traces = []
        self.probes = []

    def run(self, order, check_oracle, tracer=None, deadline=None, whole=True):
        """Replay `order`; return False if the deadline stopped it early.
        When the round has to be `whole`, each report it could not start
        counts as failed, so that the metrics are never taken over fewer
        reports than a complete run has."""
        from probe import host_probe
        from replay import failure_of, run_report
        last_probe = -PROBE_EVERY_S
        for done, report in enumerate(order):
            if time.monotonic() - last_probe >= PROBE_EVERY_S:
                self.probes.append(host_probe())
                last_probe = time.monotonic()
            if deadline is not None and time.monotonic() > deadline:
                if whole:
                    self.attempted += len(order) - done
                    self.failures["not started by the run time limit"] += len(order) - done
                return False
            msg = run_report(report, check_oracle, tracer)
            self.attempted += 1
            failure = failure_of(report, msg, self.expected,
                                 self.inputs[report.rid])
            if failure:
                self.failures[failure] += 1
                detail = msg.get("error_report") or msg.get("oracle")
                print("FAILED %s: %s%s" % (report.rid, failure,
                                           " (%s)" % detail if detail else ""))
            if "lost" in msg:
                continue
            self.by_report.setdefault(report.rid, []).append(msg["elapsed"])
            self.points[report.rid] = report.points
            self.rss_kb = max(self.rss_kb, msg["rss_kb"])
            if "trace" in msg:
                self.traces.append(msg["trace"])
        return True

    def total_s(self):
        return sum(map(sum, self.by_report.values()))

    def host_factor(self):
        """How much slower than the reference this host ran during the run:
        the median probe time over the reference probe time."""
        from probe import PROBE_REF_S
        return statistics.median(self.probes) / PROBE_REF_S

    def end_to_end(self, setup, elasticity):
        """Each report's latency is its median across rounds, which a burst
        of host contention in one round barely moves; percentiles are over
        reports, rates over one typical round.  Times and rates are stated
        at the reference host speed: divided (times) or multiplied (rates)
        by the host factor raised to `elasticity`.  Each import sample is
        scaled by the probes taken around it in its own interpreter."""
        from probe import PROBE_REF_S
        host = self.host_factor() ** elasticity
        lat = {rid: statistics.median(v) for rid, v in self.by_report.items()}
        busy = sum(lat.values())
        values = list(lat.values())
        setup_s = statistics.median(
            took * (2 * PROBE_REF_S / (before + after)) ** elasticity
            for took, before, after in setup)
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "report_p50_ms": {"value": 1e3 * statistics.median(values) / host,
                              "unit": "ms"},
            "report_p90_ms": {"value": 1e3 * statistics.quantiles(values, n=10)[8] / host,
                              "unit": "ms"},
            "points_per_s": {"value": host * sum(self.points[rid] for rid in lat) / busy,
                             "unit": "1/s"},
            "reports_per_s": {"value": host * len(lat) / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": self.rss_kb / 1024.0, "unit": "MB"},
        }


def generate_reports(workload, workdir):
    """Write the documents in a child, so that the parent's memory, which
    every report inherits, does not hold them."""
    from replay import file_digest, run_in_child
    from workloads import Report, generate
    got = run_in_child(lambda: [tuple(r) for r in generate(workload, workdir)])
    if isinstance(got, dict):
        raise RuntimeError("document generation failed: %s" % got["lost"])
    reports = [Report(*r) for r in got]
    return reports, {r.rid: file_digest(r.docs) for r in reports}


def untraced(reports, replay, seed, seconds, started):
    """Whole rounds, each in its own seeded order.  The first round's
    duration fixes how many rounds fit in --seconds (at least one).  Only
    the first round has to be whole: a later one that meets the run time
    limit just gives some reports one sample fewer."""
    rng = random.Random("order:%d" % seed)
    deadline = started + RUN_LIMIT_S
    rounds = 1
    done = 0
    while done < rounds:
        order = list(reports)
        rng.shuffle(order)
        began = time.monotonic()
        if not replay.run(order, check_oracle=(done == 0), deadline=deadline,
                          whole=(done == 0)):
            break
        if done == 0:
            rounds = max(1, int(seconds / (time.monotonic() - began) + 0.5))
        done += 1
    return done


def traced(reports, replay_plain, replay_traced, seed, started):
    """One untraced round, then the same round traced."""
    from layertrace import Tracer, layer_metrics, sum_traces
    from micro import field_metrics, line_metrics
    order = list(reports)
    random.Random("order:%d" % seed).shuffle(order)
    replay_plain.run(order, check_oracle=True, deadline=started + RUN_LIMIT_S)
    tracer = Tracer()
    tracer.install()
    try:
        replay_traced.run(order, check_oracle=False, tracer=tracer,
                          deadline=started + RUN_LIMIT_S)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(sum_traces(replay_traced.traces))
    plain_s, traced_s = replay_plain.total_s(), replay_traced.total_s()
    metrics["trace.report_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_report_s"] = {"value": plain_s, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_s / plain_s if plain_s else 0.0,
                                 "unit": "ratio"}
    fields, lost = field_metrics()
    for name in lost:
        replay_traced.attempted += 1
        replay_traced.failures["micro " + name] += 1
    metrics.update(fields)
    metrics.update(line_metrics(os.path.join(SRC, "jumploci")))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jumploci", "cli.py")):
        print("clibench: no jumploci sources under %s" % SRC, file=sys.stderr)
        return 2
    started = time.monotonic()
    pin_to_one_cpu()
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import jumploci.cli  # noqa: F401  -- every child starts from this state
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("clibench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]

    setup = None if args.trace else measure_setup()
    workdir = os.path.join(WORKDIR, args.workload)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        reports, inputs = generate_reports(args.workload, workdir)
        plain = Replay(expected, inputs)
        if args.trace:
            spans = Replay(expected, inputs)
            metrics = traced(reports, plain, spans, args.seed, started)
            runs = (plain, spans)
        else:
            rounds = untraced(reports, plain, args.seed, args.seconds, started)
            runs = (plain,)
            print("%s: %d rounds of %d reports, %.2f s of report time"
                  % (args.workload, rounds, len(reports), plain.total_s()))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if len(plain.by_report) < 2:
        print("clibench: fewer than two reports completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = plain.end_to_end(setup, HOST_ELASTICITY)
        raw = plain.end_to_end(setup, 0.0)
        print("host factor %.4f (%d probes); unscaled: %s" % (
            plain.host_factor(), len(plain.probes), json.dumps(
                {k: v["value"] for k, v in sorted(raw.items())})))
    attempted = sum(r.attempted for r in runs)
    failures = sum((r.failures for r in runs), Counter())
    for kind, n in sorted(failures.items()):
        print("failures: %d x %s" % (n, kind))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": sum(failures.values()), "metrics": metrics},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
