"""In-memory span tracer and the per-layer metrics computed from its spans.

The tracer wraps module attributes, so a span records every call that goes
through that binding: `federation.forward` is the training forward pass that
`client_update` makes, while the eval forward inside
`engine.evaluate_accuracy` is not wrapped and stays part of the eval span.

A span is (id, name, start_ns, end_ns, parent id, thread id, size). Spans
opened on a worker thread with no open span of their own take the innermost
open span of the thread that installed the tracer as parent, so client
updates running in the round's thread pool hang under their round.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, TID, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()  # the installing thread's stack
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, size=None) -> None:
        """Replace module.attr by a recording wrapper; `size(args, result)`
        gives the span's work count (examples, adopted masks, ...)."""
        fn = getattr(module, attr)
        spans, ids, stack_of, home = self.spans, self._ids, self._stack, self._home

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (home[-1] if home else 0)
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                n = size(args, result) if size is not None and result is not None else 0
                spans.append((sid, name, start, end, parent, threading.get_ident(), n))

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s[START]):
                f.write(json.dumps(dict(zip(
                    ("id", "name", "start_ns", "end_ns", "parent", "thread", "size"), s
                ))) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children on several threads may overlap one another; their union counts
    once, so a parent's self time never goes negative.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered_ns(s[START], s[END], children.get(s[ID], ()))
        for s in spans
    }


# span names by layer; the wrappers in worker.py use these names
TRAIN = ("engine.forward_train", "engine.backward", "engine.sgd_step")
EVAL = ("engine.eval", "experiment.final_eval")
DERIVE = ("pruning.derive",)
MASK_OPS = ("pruning.mask_op",)
AGGREGATE = ("federation.aggregate",)
ROUND = "federation.run_round"
CLIENT = "federation.client_update"

PHASES = {
    "train": TRAIN,
    "eval": EVAL,
    "mask": DERIVE + MASK_OPS,
    "aggregate": AGGREGATE,
}


def phase_shares(self_ns_by_name: dict[str, int]) -> dict[str, float]:
    """Each phase's share of the summed self time of the spans inside rounds.

    In a serial round the self times partition the round, so the base is the
    summed round wall time; with a thread pool it is summed thread time.
    Whatever no phase claims (client and round bookkeeping, sampling, FLOP
    counting) is `other`.
    """
    total = sum(self_ns_by_name.values())
    if total <= 0:
        raise ValueError("no span time inside rounds")
    shares = {
        phase: sum(self_ns_by_name.get(n, 0) for n in names) / total
        for phase, names in PHASES.items()
    }
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def _descendants(spans, root_name: str) -> list[tuple]:
    by_id = {s[ID]: s for s in spans}
    memo: dict[int, bool] = {}

    def under(sid: int) -> bool:
        if sid not in memo:
            s = by_id.get(sid)
            memo[sid] = s is not None and (s[NAME] == root_name or under(s[PARENT]))
        return memo[sid]

    return [s for s in spans if under(s[ID])]


def layer_metrics(spans, dense_conv_flops_per_example: int) -> dict[str, float]:
    """Per-layer metrics of one traced experiment (seconds unless named)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def secs(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name]) / 1e9

    def count(name: str) -> int:
        return len(by_name[name])

    def size(name: str) -> int:
        return sum(s[SIZE] for s in by_name[name])

    def self_secs(name: str) -> float:
        return sum(selfs[s[ID]] for s in by_name[name]) / 1e9

    train_examples = size("engine.forward_train")
    train_s = secs("engine.forward_train") + secs("engine.backward") + secs("engine.sgd_step")
    eval_examples = size("engine.eval") + size("experiment.final_eval")
    eval_s = secs("engine.eval") + secs("experiment.final_eval")
    names = {s[ID]: s[NAME] for s in spans}
    served = [s for s in by_name["engine.eval"] if names.get(s[PARENT]) == ROUND]

    rounds = by_name[ROUND]
    round_ns = sum(s[END] - s[START] for s in rounds)
    client_spans = defaultdict(list)  # round span id -> its client updates
    for s in by_name[CLIENT]:
        client_spans[s[PARENT]].append(s)
    client_phase_ns = sum(
        max(c[END] for c in cs) - min(c[START] for c in cs) for cs in client_spans.values()
    )

    in_rounds = defaultdict(int)
    for s in _descendants(spans, ROUND):
        in_rounds[s[NAME]] += selfs[s[ID]]
    shares = phase_shares(in_rounds)

    # the final table runs after the last round; artifacts are the CSV writes
    # plus the tail of run_experiment after the last traced call inside it
    run = by_name["experiment.run_experiment"][0]
    inside = [s[END] for s in spans if s[PARENT] == run[ID]]
    artifacts_s = secs("experiment.write_csv") + (run[END] - max(inside)) / 1e9

    derive_calls = count("pruning.derive")
    conv_work = dense_conv_flops_per_example * (3 * train_examples + eval_examples)
    return {
        "engine.train_steps": count("engine.backward"),
        "engine.forward_train_s": secs("engine.forward_train"),
        "engine.backward_s": secs("engine.backward"),
        "engine.sgd_step_s": secs("engine.sgd_step"),
        "engine.train_us_per_example": 1e6 * train_s / train_examples,
        "engine.eval_calls": count("engine.eval") + count("experiment.final_eval"),
        "engine.eval_examples": eval_examples,
        "engine.eval_s": eval_s,
        "engine.eval_us_per_example": 1e6 * eval_s / eval_examples,
        "engine.conv_gflops_per_s": conv_work / (train_s + eval_s) / 1e9,
        "pruning.derive_calls": derive_calls,
        "pruning.derive_s": secs("pruning.derive"),
        "pruning.mask_ops_s": secs("pruning.mask_op") + secs("experiment.final_mask_op"),
        "pruning.masks_adopted": size(CLIENT),
        "pruning.candidate_use_ratio": size(CLIENT) / derive_calls if derive_calls else 0.0,
        "federation.client_update_self_s": self_secs(CLIENT),
        "federation.aggregate_s": secs("federation.aggregate"),
        "federation.served_eval_s": sum(s[END] - s[START] for s in served) / 1e9,
        "federation.round_self_s": self_secs(ROUND),
        "federation.client_concurrency": (
            sum(c[END] - c[START] for cs in client_spans.values() for c in cs) / client_phase_ns
        ),
        "metrics.s": secs("metrics.conv_flops"),
        "experiment.build_s": secs("experiment.build"),
        "experiment.final_eval_s": secs("experiment.final_eval") + secs("experiment.final_mask_op"),
        "experiment.artifacts_s": artifacts_s,
        "data.synth_s": secs("data.synth"),
        "data.partition_s": secs("data.partition"),
        "phase.train_share": shares["train"],
        "phase.eval_share": shares["eval"],
        "phase.mask_share": shares["mask"],
        "phase.aggregate_share": shares["aggregate"],
        "phase.other_share": shares["other"],
        "trace.round_coverage": 1.0 - self_secs(ROUND) * 1e9 / round_ns,
    }
