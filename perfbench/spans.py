"""Per-layer tracing from outside the loccsynth package.

`Tracer.install` replaces each function in `TRACED`, at every loccsynth
module that binds it, with a wrapper that records a span: name, start, end,
parent span and the id of the answer it belongs to.  Rebinding at every
module matters because `synthesis_engine` imports `lp_maximize`,
`lp_feasible`, `is_psd`, `proportional` and
`mutually_intersecting_families` by name.  Spans stay in memory;
`layer_metrics` turns them into per-layer counts and self times once the
run is over.  A span's self time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

from loccsynth import (
    cone_geometry,
    exact_algebra,
    frontend_cli,
    kraus_realization,
    protocol_tree,
    synthesis_engine,
)


def _cone_query(args, kwargs, out):
    strict = kwargs.get("strict", args[1] if len(args) > 1 else False)
    return tuple(args[0]), strict, out is not None


def _result(args, kwargs, out):
    return out


# (span name, home module, function name, what the span keeps of the call)
TRACED = (
    ("exact_algebra.is_psd", exact_algebra, "is_psd", None),
    ("cone_geometry.proportional", cone_geometry, "proportional", None),
    ("cone_geometry.cones_intersect", cone_geometry, "cones_intersect", _cone_query),
    ("cone_geometry.families", cone_geometry, "mutually_intersecting_families", None),
    ("lp", cone_geometry, "lp_maximize", _result),
    ("lp", cone_geometry, "lp_feasible", _result),
    ("protocol_tree.merge_and_extend", protocol_tree, "merge_and_extend", None),
    ("protocol_tree.equivalence_signature", protocol_tree, "equivalence_signature", None),
    ("protocol_tree.congruent", protocol_tree, "congruent", None),
    ("synthesis_engine.synthesize", synthesis_engine, "synthesize", _result),
    ("synthesis_engine.validate", synthesis_engine, "validate_measurement", None),
    ("synthesis_engine.verify_protocol_exact", synthesis_engine, "verify_protocol_exact", None),
    ("kraus_realization.realize", kraus_realization, "realize", None),
    ("kraus_realization.verify_instrument", kraus_realization, "verify_instrument", None),
    ("frontend_cli.parse", frontend_cli, "parse_measurement", None),
    ("frontend_cli.run", frontend_cli, "run", None),
)

ANSWER = "answer"  # the benchmark's own root span around one answer
SETUP = "setup"  # answer id of spans recorded while building instances


class TraceError(RuntimeError):
    """The trace does not account for the program's own counters."""


class Tracer:
    def __init__(self) -> None:
        # Each span: [name, parent index, answer id, start, end, kept value].
        self.spans: list[list] = []
        self.answer = None
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, keep=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], self.answer, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if keep is not None:
                rec[5] = keep(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "loccsynth" or name.startswith("loccsynth.")
        ]
        originals = []
        for span_name, home, attr, keep in TRACED:
            original = getattr(home, attr)
            originals.append(original)
            wrapper = self.wrap(span_name, original, keep)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is f for f in originals):
                    raise TraceError(f"{mod.__name__}.{key} was not wrapped")

    def uninstall(self) -> None:
        while self._saved:
            mod, key, original = self._saved.pop()
            setattr(mod, key, original)


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _query_key(cones, strict):
    """Scaling a generator does not change its cone, so each cone is keyed
    by its set of trace-one generators."""
    return strict, frozenset(
        frozenset(g.scale(1 / g.trace()) for g in c.generators) for c in cones
    )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over every answer span, plus the setup spans'
    is_psd work.  Raises TraceError when the LP spans do not match the
    LP counts the program itself reports, or the reported per-layer times
    do not add up to the answer time."""
    n = len(spans)
    child = [0.0] * n
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = [spans[i][4] - spans[i][3] - child[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    calls = defaultdict(int)
    selfs = defaultdict(float)
    answers = set()
    answer_s = 0.0
    lp_class = defaultdict(lambda: [0, 0.0])
    lp_in_synth = defaultdict(int)
    seen_queries = defaultdict(set)
    repeats = hits = 0
    max_bits = 0
    mismatches = 0
    rounds = trees = created = tried = 0
    for i, (name, parent, answer, start, end, kept) in enumerate(spans):
        if answer == SETUP:
            calls["setup." + name] += 1
            selfs["setup." + name] += self_s[i]
            continue
        if answer is None:
            continue
        calls[name] += 1
        selfs[name] += self_s[i]
        if name == ANSWER:
            answers.add(answer)
            answer_s += end - start
        elif name == "cone_geometry.cones_intersect":
            cones, strict, hit = kept
            hits += hit
            key = _query_key(cones, strict)
            if key in seen_queries[answer]:
                repeats += 1
            seen_queries[answer].add(key)
        elif name == "lp":
            up = list(ancestors(i))
            names = [spans[a][0] for a in up]
            if "cone_geometry.cones_intersect" in names:
                cls = "cone"
            elif "synthesis_engine.validate" in names:
                cls = "validate"
            elif names and names[0] == "synthesis_engine.synthesize":
                cls = "tree_solve"
            else:
                cls = "other"
            lp_class[cls][0] += 1
            lp_class[cls][1] += self_s[i]
            # SearchStats.lp_calls starts counting after validation.
            if cls != "validate":
                for a in up:
                    if spans[a][0] == "synthesis_engine.synthesize":
                        lp_in_synth[a] += 1
                        break
            max_bits = max(max_bits, _bits(kept[1] or ()), _bits(kept[2:]))
    for i, (name, _, answer, _, _, result) in enumerate(spans):
        if name != "synthesis_engine.synthesize" or answer in (None, SETUP):
            continue
        st = result.stats
        if lp_in_synth[i] != st.lp_calls:
            mismatches += 1
        rounds += st.rounds_completed
        trees += st.trees_total
        made = sum(r.trees_created for r in st.rounds)
        created += made
        tried += made + st.signature_dedup_hits + st.congruence_skips
        if isinstance(result, synthesis_engine.LOCCProtocol):
            max_bits = max(max_bits, _bits(result.q.values()), _bits(result.p.values()))
    mismatches += lp_class["other"][0]
    if mismatches:
        raise TraceError(f"{mismatches} answers: traced LP calls differ from SearchStats.lp_calls")

    count = max(1, len(answers))
    n_cone = calls["cone_geometry.cones_intersect"]
    out = {
        "exact_algebra.is_psd.calls": calls["exact_algebra.is_psd"],
        "exact_algebra.is_psd.self_s": selfs["exact_algebra.is_psd"],
        "exact_algebra.is_psd.setup_calls": calls["setup.exact_algebra.is_psd"],
        "exact_algebra.is_psd.setup_self_s": selfs["setup.exact_algebra.is_psd"],
        "exact_algebra.max_bits": max_bits,
        "cone_geometry.cones_intersect.calls": n_cone,
        "cone_geometry.cones_intersect.self_s": selfs["cone_geometry.cones_intersect"],
        "cone_geometry.cones_intersect.hit_ratio": hits / n_cone if n_cone else 0.0,
        "cone_geometry.cones_intersect.repeat_ratio": repeats / n_cone if n_cone else 0.0,
        "cone_geometry.lp.calls": lp_class["cone"][0],
        "cone_geometry.lp.self_s": lp_class["cone"][1],
        "cone_geometry.families.calls": calls["cone_geometry.families"],
        "cone_geometry.families.self_s": selfs["cone_geometry.families"],
        "cone_geometry.proportional.self_s": selfs["cone_geometry.proportional"],
        "protocol_tree.merge_and_extend.self_s": selfs["protocol_tree.merge_and_extend"],
        "protocol_tree.equivalence_signature.self_s": selfs["protocol_tree.equivalence_signature"],
        "protocol_tree.congruent.self_s": selfs["protocol_tree.congruent"],
        "protocol_tree.merge_yield": created / tried if tried else 0.0,
        "synthesis_engine.synthesize.self_s": selfs["synthesis_engine.synthesize"],
        "synthesis_engine.validate.calls": calls["synthesis_engine.validate"],
        "synthesis_engine.validate.self_s": selfs["synthesis_engine.validate"],
        "synthesis_engine.validate.lp_s": lp_class["validate"][1],
        "synthesis_engine.tree_solve.lp_calls": lp_class["tree_solve"][0],
        "synthesis_engine.tree_solve.lp_s": lp_class["tree_solve"][1],
        "synthesis_engine.verify_protocol_exact.self_s": selfs["synthesis_engine.verify_protocol_exact"],
        "synthesis_engine.rounds": rounds,
        "synthesis_engine.trees_total": trees,
        "kraus_realization.realize.self_s": selfs["kraus_realization.realize"],
        "kraus_realization.verify_instrument.self_s": selfs["kraus_realization.verify_instrument"],
        "frontend_cli.parse.self_s": selfs["frontend_cli.parse"],
        "frontend_cli.run.self_s": selfs["frontend_cli.run"],
        "trace.answers": len(answers),
        "trace.answer_s": answer_s,
        "trace.unspanned_s": selfs[ANSWER],
    }
    # Every span under an answer is reported as exactly one of these fields,
    # so they add up to the answer time unless a traced layer is left out.
    parts = [v for k, v in out.items() if k.endswith((".self_s", ".lp_s"))]
    total = sum(parts) + out["trace.unspanned_s"]
    if abs(total - answer_s) > 1e-6 * max(1.0, answer_s):
        raise TraceError(f"per-layer times sum to {total} s, answers took {answer_s} s")
    for name in [k for k in out if k.endswith((".calls", ".lp_calls", ".rounds", ".trees_total"))]:
        out[name + "_per_answer"] = out[name] / count
    return out


def fixture_table(spans: list[list], group_of: dict[str, str], wall: dict[str, float]) -> list[str]:
    """Per-group rows like ROADMAP's Baseline: verdict, median untraced wall
    time, LP calls, trees and rounds (medians over the group's answers)."""
    rows = defaultdict(list)
    for name, _, answer, _, _, result in spans:
        if name == "synthesis_engine.synthesize" and answer not in (None, SETUP):
            st = result.stats
            verdict = "protocol" if isinstance(result, synthesis_engine.LOCCProtocol) else result.verdict
            rows[group_of[answer]].append(
                (verdict, wall[answer], st.lp_calls, st.trees_total, st.rounds_completed)
            )
    lines = ["| fixture | answers | verdict | wall (median) | LP calls | trees | rounds |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for group in sorted(rows):
        items = rows[group]
        verdicts = "/".join(sorted({v[0] for v in items}))

        def med(k):
            vals = sorted(v[k] for v in items)
            return vals[len(vals) // 2]

        lines.append(
            f"| {group} | {len(items)} | {verdicts} | {med(1):.3f} s | {med(2)} | {med(3)} | {med(4)} |"
        )
    return lines
