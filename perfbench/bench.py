"""One benchmark workload in one process: set-up, closed-loop run, checks.

Load model: a closed loop with one caller, one process and no threads.  The
caller sends the next operation only after the previous one returned.

* protect = parse network JSON -> `decompose` -> plan JSON text
  (what `triflow decompose` does).  An `Unprotectable` refusal is an answer.
* replay  = parse plan JSON -> `verify_plan` -> single-edge failure scenarios
  through `simulate_transmission`, every outcome decoded and checked (what
  `triflow verify` plus `triflow simulate` do).  It runs on every plan that
  protect produced.

Every pass over a workload's inputs runs protect on each network and replay
on each resulting plan; the first pass always completes, so correctness
checks and the plan digest cover every input.  Later operations continue the
same cycle until `--seconds` have passed.

Run through `run.py`, which starts this file in a fresh process with its own
PYTHONHASHSEED and the source tree on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from triflow import (FeasibilityKind, GenParams, Generation, Structure,
                     classify_feasibility, decompose, derive_coding_capacities,
                     failure_sweep, files, generate, simulate_transmission,
                     survivability_by_removal, verify_plan)
from triflow.errors import Unprotectable

from refclock import REF_KERNEL_S, RefClock
from tracing import WORK_COUNTERS, Tracer, layer_metrics

# Set-up runs once before the timed loop and SETUP_ROUNDS more times spread
# evenly over it; setup_s is the median round.
SETUP_ROUNDS = 8
PAYLOAD_BYTES = 32


def _sub_seeds(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")  # str seeding ignores PYTHONHASHSEED
    while True:
        yield rng.getrandbits(31)


def _ladders(name, nodes, count):
    def select(seed):
        seeds = _sub_seeds(name, seed)
        return [GenParams(nodes, next(seeds), Structure.LADDER) for _ in range(count)]
    return select


_NC, _DC, _U, _I = (FeasibilityKind.NETWORK_CODING, FeasibilityKind.DIVERSITY_CODING,
                    FeasibilityKind.UNPROTECTED_2FLOW, FeasibilityKind.INFEASIBLE)
# Class mix of dag-large, twice per run: three plans and two refusals each.
_DAG_MIX = (_NC, _DC, _U, _DC, _I)
# Class mix of small-batch's DAGs: two thirds refused, so a third of the batch.
_SMALL_DAG_MIX = (_NC, _DC, _U, _I, _U, _I)


def _dag_mix(name, slots):
    """Seed -> one RANDOM_DAG per (nodes, class) slot.  Candidates come from
    the seed's stream; each fills the first open slot of its size and class.
    A fixed mix keeps the medians from jumping between classes across seeds."""
    def select(seed):
        chosen = [None] * len(slots)
        seeds = _sub_seeds(name, seed)
        while None in chosen:
            nodes = slots[chosen.index(None)][0]
            params = GenParams(nodes, next(seeds), Structure.RANDOM_DAG)
            kind = classify_feasibility(derive_coding_capacities(generate(params))).kind
            free = [i for i, slot in enumerate(slots)
                    if slot == (nodes, kind) and chosen[i] is None]
            if free:
                chosen[free[0]] = params
        return chosen
    return select


def _small_batch(name, count, low, high):
    """count/2 LADDER and count/2 RANDOM_DAG networks, alternating, each kind
    spread evenly over low..high nodes; only the structures depend on the seed."""
    half = count // 2
    sizes = [low + j * (high - low) // (half - 1) for j in range(half)]
    dags = _dag_mix(name, [(n, _SMALL_DAG_MIX[j % len(_SMALL_DAG_MIX)])
                           for j, n in enumerate(sizes)])

    def select(seed):
        seeds = _sub_seeds(f"{name}:ladder", seed)
        ladders = [GenParams(n, next(seeds), Structure.LADDER) for n in sizes]
        return [p for pair in zip(ladders, dags(seed)) for p in pair]
    return select


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    select: Callable          # seed -> list of GenParams, the run's inputs
    failures: int | None      # failure scenarios per replay; None = every edge
    oracle_survivability: bool = False
    plans_in_setup: bool = False  # replay the plans made in set-up


WORKLOADS = {w.name: w for w in (
    Workload("ladder-large",
             "2 LADDER networks of 8k nodes (~5k cuts, all four segment "
             "types): conditioning, cut chain, segment solve, glue and verify "
             "all work on a large heap; 24 sampled failures per replay",
             _ladders("ladder-large", 8000, 2), failures=24),
    Workload("dag-large",
             "10 RANDOM_DAG networks of 2k nodes, fixed class mix 2x(NC+2xDC+U+I): "
             "whole-graph passes (Digraph, classify, settle/prune, survivability "
             "map) dominate; segment code is bypassed",
             _dag_mix("dag-large", [(2000, kind) for kind in _DAG_MIX * 2]),
             failures=None),
    Workload("small-batch",
             "500 networks of 8-64 nodes, half LADDER half RANDOM_DAG, 1/3 "
             "refused by a fixed DAG class mix: per-call fixed costs dominate; "
             "enough samples for p99",
             _small_batch("small-batch", 500, 8, 64), failures=None,
             oracle_survivability=True),
    Workload("replay-sweep",
             "6 LADDER networks of 400 nodes, plans made in set-up, each "
             "reloaded, verified and swept over every edge: the per-edge "
             "re-flood of the simulator dominates",
             _ladders("replay-sweep", 400, 6), failures=None, plans_in_setup=True),
)}


def set_up(params_list, plans: bool) -> tuple:
    """(network JSON texts, as `triflow gen` writes them; their answer texts,
    as `triflow decompose` writes them, if `plans`, else None)."""
    texts = [files.dumps(files.network_to_json(generate(p))) for p in params_list]
    return texts, [answer_text(*protect(t)[1:]) for t in texts] if plans else None


def protect(text):
    """(network, plan or Unprotectable, plan JSON text or None)."""
    net = files.network_from_json(json.loads(text))
    try:
        plan = decompose(net)
    except Unprotectable as exc:
        return net, exc, None
    return net, plan, files.dumps(files.plan_to_json(plan))


def answer_text(answer, plan_text) -> str:
    """The plan JSON text, or the refusal's class for a refusal."""
    return plan_text or f"refused:{answer.feasibility.kind.value}\n"


def replay(net, plan_text, gen, failed_edges):
    """(verification report, {failed edge: outcome}, seconds in simulation)."""
    plan = files.plan_from_json(json.loads(plan_text), net)
    cn = derive_coding_capacities(net)
    report = verify_plan(cn, plan)
    started = perf_counter()
    if failed_edges is None:
        outcomes = failure_sweep(cn, plan, gen)
    else:
        outcomes = {e: simulate_transmission(cn, plan, gen, failed_edge=e)
                    for e in failed_edges}
    return report, outcomes, perf_counter() - started


def _plain_call(name, fn, *args):
    return fn(*args)


class Run:
    """Samples, failures and answers of one workload run."""

    def __init__(self, workload: Workload, seed: int, texts: list, plans,
                 clock: RefClock):
        self.workload = workload
        self.texts = texts
        self.plans = plans
        self.clock = clock
        rng = random.Random(f"{workload.name}:{seed}:payload")
        self.gen = Generation(seq=seed, payload_a=rng.randbytes(PAYLOAD_BYTES),
                              payload_b=rng.randbytes(PAYLOAD_BYTES))
        # per input: every protect (start, end) and every replay (start, end,
        # seconds in simulation, scenarios); each input repeats once per pass
        self.protect_t = [[] for _ in texts]
        self.replay_t = [[] for _ in texts]
        self.spans = []  # (start, end) of every operation, in order
        self.attempted = 0
        self.errors = []                    # one line per failed operation
        self.answers = [None] * len(texts)  # plan JSON text, or refusal class
        self.failed_edges = [None] * len(texts)

    def _fail(self, i, what):
        self.errors.append(f"network {i}: {what}")

    def operate(self, i, call=_plain_call):
        """Protect network i, then replay its plan; `call` may trace both.
        The first answer for each input is checked, outside the timing."""
        self.attempted += 1
        self.clock.tick()
        started = perf_counter()
        try:
            net, answer, plan_text = call("bench.protect", protect, self.texts[i])
        except Exception as exc:  # any other exception is a failed operation
            self._fail(i, f"protect raised {exc!r}")
            return
        ended = perf_counter()
        self.protect_t[i].append((started, ended))
        self.spans.append((started, ended))
        text = answer_text(answer, plan_text)
        if self.plans is not None and text != self.plans[i]:
            self._fail(i, "answer bytes differ from the plan made in set-up")
        if self.answers[i] is None:
            self.answers[i] = text
            self._check(i, net, answer)
            if plan_text is not None and self.workload.failures is not None:
                edges = sorted(net.graph.edge_ids, key=str)
                rng = random.Random(f"{self.workload.name}:{i}")
                self.failed_edges[i] = rng.sample(edges, self.workload.failures)
        elif text != self.answers[i]:
            self._fail(i, "answer bytes differ from the first protect of this input")
        if plan_text is None:
            return
        if self.plans is not None:
            plan_text = self.plans[i]

        self.attempted += 1
        self.clock.tick()
        started = perf_counter()
        try:
            report, outcomes, sweep_s = call("bench.replay", replay, net, plan_text,
                                             self.gen, self.failed_edges[i])
        except Exception as exc:
            self._fail(i, f"replay raised {exc!r}")
            return
        ended = perf_counter()
        self.replay_t[i].append((started, ended, sweep_s, len(outcomes)))
        self.spans.append((started, ended))
        want = (self.gen.payload_a, self.gen.payload_b)
        lost = [e for e, o in outcomes.items() if o.decoded != want]
        if not report.overall:
            self._fail(i, "replayed plan fails verify_plan")
        elif lost:
            self._fail(i, f"{len(lost)} failure scenarios decode wrongly, e.g. {lost[0]!r}")

    def _check(self, i, net, answer):
        cn = derive_coding_capacities(net)
        kind = classify_feasibility(cn).kind
        if isinstance(answer, Unprotectable):
            if answer.feasibility.kind is not kind:
                self._fail(i, f"refused as {answer.feasibility.kind.name}, "
                              f"classified {kind.name}")
            return
        if answer.feasibility.kind is not kind:
            self._fail(i, f"plan class {answer.feasibility.kind.name}, "
                          f"classified {kind.name}")
            return
        fresh = verify_plan(cn, answer)
        if not fresh.overall:
            self._fail(i, "plan fails a fresh verify_plan")
        elif (self.workload.oracle_survivability
                and dict(answer.verification.survivability)
                != survivability_by_removal(cn, answer)):
            self._fail(i, "survivability map differs from survivability_by_removal")

    def one_pass(self, call=_plain_call):
        for i in range(len(self.texts)):
            self.operate(i, call)

    def digest(self) -> str:
        """sha256 over every input's plan JSON (or refusal class), in order."""
        h = hashlib.sha256()
        for text in self.answers:
            h.update((text or "missing\n").encode())
        return h.hexdigest()


class SetUp:
    """Timed set-up rounds of one run.  Every round must give the same bytes."""

    def __init__(self, workload, seed, clock: RefClock):
        self.workload = workload
        self.params = workload.select(seed)
        self.clock = clock
        self.spans = []   # (start, end) of each round
        self.texts, self.plans = self.round()

    def round(self):
        gc.collect()  # every round starts from a collected heap
        self.clock.sample()
        started = perf_counter()
        out = set_up(self.params, self.workload.plans_in_setup)
        self.spans.append((started, perf_counter()))
        self.clock.sample()
        return out

    def repeat(self, run):
        if self.round() != (self.texts, self.plans):
            run.errors.append("a set-up round gave other inputs or plans")


def run_untraced(workload, seed, seconds):
    clock = RefClock()
    setup = SetUp(workload, seed, clock)
    run = Run(workload, seed, setup.texts, setup.plans, clock)
    started = perf_counter()
    run.one_pass()
    # Further set-up rounds spread evenly over the run, so that setup_s sees
    # the run's mix of host speeds rather than its first moment.
    i = 0
    while perf_counter() - started < seconds or len(setup.spans) <= SETUP_ROUNDS:
        if perf_counter() - started >= len(setup.spans) * seconds / (SETUP_ROUNDS + 1):
            setup.repeat(run)
        else:
            run.operate(i)
            i = (i + 1) % len(setup.texts)
    clock.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every time below is scaled to the reference host speed (refclock.py).
    # Latency: median over the inputs of each input's median repeat.
    # Throughput: every operation of the run over their summed time.
    protect_t = [[clock.scaled(*t) for t in ts] for ts in run.protect_t]
    replay_t = [[clock.scaled(*t[:2]) for t in ts] for ts in run.replay_t]
    if not any(protect_t) or not any(replay_t):
        run.errors.append("no protect or no replay sample: nothing to report")
        return run, {}, []
    samples = sorted(t for ts in protect_t for t in ts)
    n_r = sum(map(len, replay_t))
    scenarios = sum(n for ts in run.replay_t for *_, n in ts)
    sweep_s = sum(sweep * clock.scaled(start, end) / (end - start)
                  for ts in run.replay_t for start, end, sweep, _ in ts)
    protect_p50 = statistics.median(statistics.median(ts) for ts in protect_t if ts)
    replay_p50 = statistics.median(statistics.median(ts) for ts in replay_t if ts)
    protect_rate = len(samples) / sum(samples)
    failure_rate = scenarios / sweep_s
    setup_s = statistics.median(clock.scaled(*span) for span in setup.spans)
    raw_setup_s = statistics.median(end - start for start, end in setup.spans)
    raw_protect = statistics.median(
        statistics.median(end - start for start, end in ts) for ts in run.protect_t if ts)
    metrics = {
        "setup_s": (setup_s, "s"),
        "protect_ms_p50": (protect_p50 * 1e3, "ms"),
        "protect_per_s": (protect_rate, "1/s"),
        "replay_ms_p50": (replay_p50 * 1e3, "ms"),
        "failures_per_s": (failure_rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    p99 = (f"{samples[int(0.99 * len(samples))] * 1e3:.4f} ms (all {len(samples)} "
           "samples)" if len(samples) >= 1000
           else f"not reported (needs >= 1000 samples, have {len(samples)})")
    median = "median over inputs of each input's median repeat"
    kernel = sorted(clock.times)
    lines = [
        f"setup_s         {setup_s:.4f} s     (median of {len(setup.spans)} set-ups)",
        f"protect_ms_p50  {protect_p50 * 1e3:.4f} ms    ({median}; "
        f"{len(samples)} samples)",
        f"protect_ms_p99  {p99}",
        f"protect_per_s   {protect_rate:.4f} 1/s   (all {len(samples)} answers / "
        "their summed protect time)",
        f"replay_ms_p50   {replay_p50 * 1e3:.4f} ms    ({median}; {n_r} samples)",
        f"failures_per_s  {failure_rate:.4f} 1/s   (all {scenarios} scenarios / "
        "their summed simulation time)",
        f"peak_rss_mb     {peak_rss_mb:.4f} MB    (RUSAGE_SELF)",
        f"fail_rate       {len(run.errors) / run.attempted:.4f}       "
        f"({len(run.errors)} of {run.attempted} operations)",
        f"times above are scaled to a reference kernel time of "
        f"{REF_KERNEL_S * 1e3:.1f} ms; the kernel took {kernel[0] * 1e3:.2f} / "
        f"{statistics.median(kernel) * 1e3:.2f} / {kernel[-1] * 1e3:.2f} ms "
        f"(min / median / max of {len(kernel)} samples)",
        f"raw wall time: setup_s {raw_setup_s:.4f} s, protect_ms_p50 "
        f"{raw_protect * 1e3:.4f} ms",
    ]
    return run, metrics, lines


def run_traced(workload, seed, seconds):
    """Per-layer metrics of traced passes over the inputs.

    The first pass is untraced and runs the checks.  Traced and untraced
    passes then alternate until `seconds` have passed, with at least one
    traced pass.  Counts are those of the first traced pass (every later
    traced pass must repeat them exactly), times the median over traced
    passes; the tracing overhead compares the median operation time of a
    traced and an untraced pass, scaled to the reference host speed.
    """
    clock = RefClock()
    setup = SetUp(workload, seed, clock)
    run = Run(workload, seed, setup.texts, setup.plans, clock)
    tracer = Tracer()
    passes = {True: [], False: []}   # traced? -> [(layer totals, its run.spans)]
    started = perf_counter()
    traced = False
    while not passes[True] or perf_counter() - started < seconds:
        before = len(run.spans)
        if traced:
            tracer.install()
            try:
                run.one_pass(tracer.root)
            finally:
                tracer.uninstall()
        else:
            run.one_pass()
        passes[traced].append((tracer.take() if traced else None,
                               slice(before, len(run.spans))))
        traced = not traced
    clock.sample()

    per_pass = [layer_metrics(*totals) for totals, _ in passes[True]]
    first = per_pass[0]
    for later in per_pass[1:]:
        changed = [k for k in WORK_COUNTERS if later[k] != first[k]]
        if changed:
            run.errors.append(f"work counters changed between traced passes: {changed}")
    metrics = {}
    for key, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p[key][0] for p in per_pass)
        metrics[key] = (value, unit)
    def op_s(spans):
        return sum(clock.scaled(*span) for span in run.spans[spans])
    traced_s = statistics.median(op_s(spans) for _, spans in passes[True])
    plain_s = statistics.median(op_s(spans) for _, spans in passes[False])
    metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
    lines = [f"{k:<44} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines += [
        f"passes: {len(passes[True])} traced, {len(passes[False])} untraced; "
        "times are self seconds per pass (span minus traced callees), "
        "counts are per pass",
        f"GC: py.gc.s {metrics['py.gc.s'][0]:.6g} s in "
        f"{metrics['py.gc.collections'][0]} collections per pass (also inside "
        "the self time of the span each collection interrupted)",
        f"tracing overhead: {metrics['trace.overhead'][0]:+.2%} (median traced "
        f"pass {traced_s:.4f} s vs untraced {plain_s:.4f} s of operation time, "
        "scaled)",
        "note: hardware counters (cycles, instructions, cache misses) are not "
        "measured: no perf tool or counter library is available here",
        "note: peak RSS is ru_maxrss of this process only; no cgroup or "
        "whole-machine memory figures are read",
    ]
    return run, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    run, metrics, lines = runner(workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for error in run.errors[:20]:
        print(f"FAILED {error}")
    failed = len(run.errors)
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digest": run.digest(),
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
