#!/usr/bin/env python3
"""Alternating blocks of train steps or evals through two checkouts' engines, in one process.

    python3 scripts/step_pairs.py PARENT_DIR CHANGE_DIR --model M [--batch B | --eval E]
                                  [--blocks N] [--steps S]

PARENT_DIR and CHANGE_DIR are the roots of two checkouts. Each one's
src/subfed/engine.py is loaded as its own module, which builds the built-in
model M, its initial params (seed 0) and one fixed batch of B random
inputs and labels. A train step is a train-mode `forward`, `backward` and
`sgd_step` (lr 0.01, momentum 0.9, no mask), as in a client's local round.
With `--eval E` the batch holds E examples, and a block runs S calls of
`evaluate_accuracy` on it in place of train steps.

After one untimed block per side, N pairs of blocks of S steps run, the
parent's block first in even pairs and the change's first in odd ones. The
script prints each side's median and quartiles (statistics.quantiles, n=4)
of µs per step (per example evaluated, with `--eval`) over its blocks, and
the change's win count over the pairs, ties counting for neither side. Both
sides run the same work on the same data, so it also says whether their
final params (with `--eval`, their eval-mode logits of the batch) are
bit-identical. BLAS is pinned to one thread, as in perfbench.
"""

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import numpy as np  # noqa: E402

from bench_trajectory import spread  # noqa: E402  scripts/bench_trajectory.py


def load_engine(checkout: Path, name: str):
    """`checkout`'s src/subfed/engine.py as a module named `name`."""
    spec = importlib.util.spec_from_file_location(name, checkout / "src" / "subfed" / "engine.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's engine, model, params and optimizer state."""

    def __init__(self, engine, model: str, batch: int):
        self.engine = engine
        self.spec = engine.builtin_spec(model)
        self.params = engine.init_params(self.spec, 0)
        self.opt = engine.OptimizerState(0.01, 0.9)
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(batch, *self.spec.input_shape)).astype(np.float32)
        self.y = rng.integers(0, engine.class_count(self.spec), size=batch)

    def block(self, steps: int) -> float:
        """Run `steps` train steps; µs per step."""
        e = self.engine
        start = time.perf_counter()
        for _ in range(steps):
            _, cache = e.forward(self.spec, self.params, self.x, "train")
            _, grads = e.backward(cache, self.y)
            e.sgd_step(self.params, grads, self.opt)
        return (time.perf_counter() - start) / steps * 1e6

    def eval_block(self, steps: int) -> float:
        """Evaluate the batch `steps` times; µs per example."""
        e = self.engine
        start = time.perf_counter()
        for _ in range(steps):
            e.evaluate_accuracy(self.spec, self.params, self.x, self.y)
        return (time.perf_counter() - start) / (steps * len(self.x)) * 1e6

    def result(self, evals: bool) -> bytes:
        """The bits the work ends on: the params, or with `evals` the batch's logits."""
        if evals:
            return self.engine.forward(self.spec, self.params, self.x, "eval")[0].tobytes()
        return self.params.flat.tobytes()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the change checkout")
    ap.add_argument("--model", required=True, help="a built-in model spec name")
    work = ap.add_mutually_exclusive_group()
    work.add_argument("--batch", type=int, default=10, help="examples per train step")
    work.add_argument("--eval", type=int, metavar="E",
                      help="time evaluations of E examples instead of train steps")
    ap.add_argument("--blocks", type=int, default=20, help="pairs of timed blocks")
    ap.add_argument("--steps", type=int, default=50, help="train steps or evals per block")
    return ap


def main() -> int:
    ap = build_parser()
    args = ap.parse_args()
    evals = args.eval is not None
    batch = args.eval if evals else args.batch
    if min(batch, args.blocks, args.steps) < 1:
        ap.error("--batch, --eval, --blocks and --steps must be at least 1")
    parent, change = (Side(load_engine(root, f"{side}_engine"), args.model, batch)
                      for side, root in (("parent", args.parent), ("change", args.change)))
    block = Side.eval_block if evals else Side.block
    for side in (parent, change):
        block(side, args.steps)  # warm caches and lazy set-up
    times = {parent: [], change: []}
    for i in range(args.blocks):
        for side in (parent, change) if i % 2 == 0 else (change, parent):
            times[side].append(block(side, args.steps))
    wins = sum(c < p for p, c in zip(times[parent], times[change]))
    losses = sum(c > p for p, c in zip(times[parent], times[change]))
    work, unit = ("eval", "evals") if evals else ("batch", "steps")
    print(f"model {args.model} {work} {batch}: {args.blocks} pairs of {args.steps} {unit}")
    medians = {}
    for name, side in (("parent", parent), ("change", change)):
        s = spread(times[side])
        medians[name] = s["median"]
        print(f"{name} median {s['median']:.1f} us/{'example' if evals else 'step'}  "
              f"quartiles {s['q1']:.1f} .. {s['q3']:.1f}")
    gap = medians["change"] - medians["parent"]
    print(f"change wins {wins} of {args.blocks} pairs ({losses} lost); "
          f"median gap {gap:+.1f} us ({gap / medians['parent']:+.1%})")
    same = parent.result(evals) == change.result(evals)
    print(f"{'eval logits' if evals else 'final params'} bit-identical: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
