#!/usr/bin/env python3
"""loccsynth benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

Run from the root of a checkout; the package is imported from its `src/`.
Each workload is a closed loop with one client in this one process.  Every
answer is checked against the instance's known answer.  With `--trace 0`
the last stdout line holds the end-to-end metrics; with `--trace 1` it holds
per-layer metrics from a traced replay of the untraced run's first half.
Each run writes one digest per instance (verdict, protocol tree text, q and
p) to perfbench/out/; `--compare` counts digests that differ between two
such files.
"""

import time

_STARTED = time.perf_counter()

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORK_DIR = ROOT / "perfbench" / "work"

SETUP_REPEATS = 5
# Instances made at set-up; the rest are drawn from the same seeded stream
# between answers, outside the timed region, so no instance repeats.
SETUP_INSTANCES = {"headline": 4, "cli_files": 24}
# Small measurements drawn at set-up.  A fixed count keeps set-up from
# costing more for a seed that is slow to draw four of every kind.
SETUP_DRAWS = 96
# A cycle holds one instance of each headline fixture or small-measurement
# kind; runs stop only at a cycle boundary so every run has the same mix.
CYCLE = {"headline": 4, "cli_files": 6}
# answer_s_tail is the mean of the slowest 1/TAIL_SHARE of a run's answers,
# the answers beyond the highest percentile that leaves at least ten.  A
# 55-second run on a 2-core x86 host makes 40-52 headline answers (10-13
# beyond p75) and 600-1000 cli_files answers (30-50 beyond p95).  A mean
# moves in proportion to the share of a run the host spends in a slow
# phase; a single percentile of a mix of fast- and slow-phase answers jumps
# from one phase's answers to the other's.
TAIL_SHARE = {"headline": 4, "cli_files": 20}


class AnswerFailed(Exception):
    pass


def digest(verdict, tree_text="", q=None, p=None) -> str:
    text = json.dumps([verdict, tree_text, q or {}, p or {}], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def coeffs(table) -> dict:
    return {f"{r.j},{r.k}": str(v) for r, v in table.items()}


class Library:
    """Answer = synthesize, plus realize and verify_instrument when a
    protocol comes back."""

    def __init__(self, cfg):
        self.cfg = cfg

    def answer(self, inst):
        result = se.synthesize(inst.measurement, self.cfg)
        instrument = None
        if isinstance(result, se.LOCCProtocol):
            instrument = kr.verify_instrument(kr.realize(result), inst.measurement)
        return result, instrument

    def check(self, inst, outcome) -> str:
        result, instrument = outcome
        return check_result(inst, result, instrument is not None and instrument.ok)


class Cli:
    """Answer = frontend_cli.run on a measurement file, with a report."""

    def __init__(self, max_rounds):
        self.max_rounds = max_rounds
        self.last = None
        self._synthesize = fc.synthesize
        fc.synthesize = self._capture  # keeps the result for checking

    def _capture(self, *args, **kwargs):
        self.last = se.synthesize(*args, **kwargs)
        return self.last

    def close(self):
        fc.synthesize = self._synthesize

    def answer(self, item):
        self.last = None
        return fc.run(
            item.path, max_rounds=self.max_rounds, report_path=item.report, out=io.StringIO()
        )

    def check(self, item, code) -> str:
        report = json.loads(item.report.read_text())
        result = self.last
        verdict = report["verdict"]
        want_code = 0 if verdict == PROTOCOL else 2
        if code != want_code:
            raise AnswerFailed(f"exit code {code} for verdict {verdict}")
        if verdict == PROTOCOL:
            if not report["instrument"]["ok"]:
                raise AnswerFailed("report says instrument.ok is false")
            proto = report["protocol"]
            shown = digest(verdict, proto["tree"], proto["q"], proto["p"])
        else:
            shown = digest(verdict)
        if check_result(item.instance, result, True) != shown:
            raise AnswerFailed("report disagrees with the synthesized result")
        return shown


def check_result(inst, result, instrument_ok) -> str:
    if isinstance(result, se.LOCCProtocol):
        verdict = PROTOCOL
    else:
        verdict = result.verdict
    if verdict != inst.expected:
        raise AnswerFailed(f"{inst.label}: verdict {verdict}, expected {inst.expected}")
    if verdict != PROTOCOL:
        return digest(verdict)
    try:
        verify_exact(result)
    except se.ProtocolVerificationError as exc:
        raise AnswerFailed(f"{inst.label}: {exc}") from None
    if not instrument_ok:
        raise AnswerFailed(f"{inst.label}: instrument check failed")
    return digest(verdict, pt.tree_to_text(result.tree), coeffs(result.q), coeffs(result.p))


@dataclass(frozen=True)
class CliItem:
    path: Path
    report: Path
    instance: object  # the generated instances.Instance

    label = property(lambda self: self.instance.label)
    group = property(lambda self: self.instance.group)


class Pool:
    """Instances of one seeded stream, made on first use.  Answered ones
    are let go unless `keep` holds them for a traced replay, so the heap
    the program's garbage collector scans does not grow with the run."""

    def __init__(self, stream, size, keep=False):
        self._stream = stream
        self._keep = keep
        self._first = 0  # stream index of items[0]
        self.items = [next(stream) for _ in range(size)]

    def __getitem__(self, i):
        if not self._keep and i > self._first:
            del self.items[: i - self._first]
            self._first = i
        while self._first + len(self.items) <= i:
            self.items.append(next(self._stream))
        return self.items[i - self._first]


def cli_files(stream, workdir):
    workdir.mkdir(parents=True)
    for i, inst in enumerate(stream):
        path = workdir / f"m{i}.json"
        fc.write_measurement(inst.measurement, path)
        yield CliItem(path, path.with_suffix(".report.json"), inst)


def build(workload, seed, workdir, keep=False) -> Pool:
    """The workload's seeded instances, the first few made now."""
    if workload == "headline":
        stream = inst_mod.headline(seed)
    else:
        shutil.rmtree(workdir, ignore_errors=True)
        stream = cli_files(inst_mod.small(seed, SETUP_DRAWS), workdir)
    return Pool(stream, SETUP_INSTANCES[workload], keep)


def measure(items, client, seconds, cycle, first=0, tracer=None):
    """Closed loop over `items` from index `first`, one answer at a time,
    stopping at the cycle boundary nearest to `seconds` of wall time (or,
    when traced, after every item of the list `items`).  Returns per-answer
    wall times, digests and the failure count."""
    times, digests, failed = [], {}, 0
    answer = client.answer if tracer is None else tracer.wrap(tr.ANSWER, client.answer)
    start = time.perf_counter()
    i = first
    while True:
        item = items[i]
        if tracer is not None:
            tracer.answer = item.label
        t0 = time.perf_counter()
        try:
            outcome = answer(item)
            error = None
        except Exception as exc:  # a raising answer is a failed answer
            outcome, error = None, exc
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.answer = None
        try:
            if error is not None:
                raise AnswerFailed(f"{item.label}: raised {error!r}")
            digests[item.label] = client.check(item, outcome)
        except Exception as exc:  # AnswerFailed, or output the check cannot read
            failed += 1
            digests[item.label] = "FAILED"
            print(f"failed answer: {exc}", file=sys.stderr)
        i += 1
        if tracer is not None:
            if i == len(items):
                break
            continue
        elapsed = time.perf_counter() - start
        done = i - first
        if i % cycle == 0 and elapsed + 0.5 * elapsed * cycle / done >= seconds:
            break
    return times, digests, failed


def tail_mean(values, share):
    """Mean of the slowest 1/share of `values`, at least one of them."""
    return statistics.mean(sorted(values)[-max(1, len(values) // share):])


def group_median(labels, times):
    """Median over the mix's fixtures or kinds of each one's mean answer
    time.  Every cycle holds one answer of each, so the plain median of all
    answers falls in the gap between two of them, on the slowest answer of
    one or the fastest of the next, and jumps with a single outlier.  Each
    one's mean, not its median, for the reason given at TAIL_SHARE."""
    by_group = defaultdict(list)
    for label, t in zip(labels, times):
        by_group[label.split(":", 1)[1]].append(t)
    return statistics.median(statistics.mean(v) for v in by_group.values())


def end_to_end(args, import_s):
    """Untraced run.  The instances are built SETUP_REPEATS times, spread
    over the run so the median of the build times spans its slow and fast
    phases alike; only the first build's instances are answered."""
    workdir = WORK_DIR / str(os.getpid())
    client = make_client(args.workload)
    builds, times, digests, failed = [], [], {}, 0
    try:
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = build(args.workload, args.seed, workdir / str(k))
            builds.append(time.perf_counter() - t0)
            if k == 0:
                items = pool
            else:
                shutil.rmtree(workdir / str(k), ignore_errors=True)
            t, d, f = measure(
                items, client, args.seconds / SETUP_REPEATS, CYCLE[args.workload], len(times)
            )
            times += t
            digests.update(d)
            failed += f
    finally:
        close_client(client, workdir)
    ok = len(times) - failed
    metrics = {
        "setup_s": import_s + statistics.median(builds),
        "answers_per_s": ok / sum(times),
        "answer_s_p50": group_median(digests, times),
        "answer_s_tail": tail_mean(times, TAIL_SHARE[args.workload]),
        "ok_ratio": ok / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(times), failed, failed == 0, digests, times


def traced(args):
    tracer = tr.Tracer()
    workdir = WORK_DIR / str(os.getpid())
    tracer.answer = tr.SETUP
    tracer.install()
    try:
        items = build(args.workload, args.seed, workdir, keep=True)
    finally:
        tracer.uninstall()
        tracer.answer = None
    client = make_client(args.workload)
    try:
        plain_times, plain, failed = measure(
            items, client, args.seconds / 2, CYCLE[args.workload]
        )
        replay = items.items[: len(plain_times)]
        tracer.install()
        try:
            traced_times, traced_digests, traced_failed = measure(
                replay, client, 0, CYCLE[args.workload], tracer=tracer
            )
        finally:
            tracer.uninstall()
    finally:
        close_client(client, workdir)
    correct = failed == 0 and traced_failed == 0
    if traced_digests != plain:
        print("traced and untraced runs produced different digests", file=sys.stderr)
        correct = False
    try:
        layers = tr.layer_metrics(tracer.spans)
    except tr.TraceError as exc:
        print(f"trace self-check failed: {exc}", file=sys.stderr)
        raise SystemExit(1)
    layers["trace_overhead"] = sum(plain_times) / sum(traced_times)
    if args.workload == "headline":
        wall = {item.label: t for item, t in zip(replay, plain_times)}
        groups = {item.label: item.group for item in replay}
        print("\n".join(tr.fixture_table(tracer.spans, groups, wall)))
    attempted = len(plain_times) + len(traced_times)
    return layers, attempted, failed + traced_failed, correct, plain, plain_times


def make_client(workload):
    if workload == "headline":
        return Library(se.SearchConfig(max_rounds=10, exhaustive=True))
    return Cli(max_rounds=4)


def close_client(client, workdir):
    if isinstance(client, Cli):
        client.close()
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
        WORK_DIR.rmdir()


def compare(first, second) -> int:
    a = json.loads(Path(first).read_text())["digests"]
    b = json.loads(Path(second).read_text())["digests"]
    common = sorted(set(a) & set(b), key=lambda k: int(k.split(":")[0]))
    changed = [k for k in common if a[k] != b[k]]
    print(json.dumps({
        "compared": len(common),
        "changed": len(changed),
        "changed_labels": changed[:20],
        "only_in_first": len(set(a) - set(b)),
        "only_in_second": len(set(b) - set(a)),
    }))
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CYCLE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    src = ROOT / "src"
    if not (src / "loccsynth" / "__init__.py").is_file():
        print(f"perfbench: no loccsynth sources under {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one client, so numpy gets one thread
    sys.path.insert(0, str(src))
    _import_program()
    import_s = time.perf_counter() - _STARTED
    if Path(se.__file__).resolve().parent != (src / "loccsynth").resolve():
        print(f"perfbench: imported loccsynth from {se.__file__}, not {src}", file=sys.stderr)
        return 2

    run = traced if args.trace else lambda a: end_to_end(a, import_s)
    values, attempted, failed, correct, digests, times = run(args)
    section = BENCH["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": values,
        "digests": digests,
        "answer_s": dict(zip(digests, times)),
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _import_program():
    global se, kr, fc, pt, tr, inst_mod, verify_exact, PROTOCOL, BENCH
    from loccsynth import frontend_cli as fc
    from loccsynth import kraus_realization as kr
    from loccsynth import protocol_tree as pt
    from loccsynth import synthesis_engine as se

    import instances as inst_mod
    import spans as tr

    # Bound before any tracing, so the checks never record spans.
    verify_exact = se.verify_protocol_exact
    PROTOCOL = inst_mod.PROTOCOL
    BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
