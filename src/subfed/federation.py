"""Round protocol: client sampling, local train-and-prune updates, aggregation.

Algorithms: sub-fedavg-un (iterative unstructured pruning), sub-fedavg-hy
(channel pruning on convs + unstructured pruning on fc layers), fedavg, and
standalone. Aggregation averages each parameter only over the selected clients
whose mask retains it; positions kept by nobody keep the previous global value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .config import ALGORITHM_CHOICES
from .engine import (
    ModelSpec,
    OptimizerState,
    ParamSet,
    backward,
    evaluate_accuracy,
    forward,
    sgd_step,
)
from .metrics import BITS_PER_MASK_POSITION, BITS_PER_SCALAR, conv_flops
from .pruning import (
    MaskCongruenceError,
    PruneSchedule,
    SparsityMask,
    advance_schedule,
    apply_mask,
    channel_component,
    combine_masks,
    dense_mask,
    derive_channel_mask,
    derive_unstructured_mask,
    fc_coverage,
    full_coverage,
    mask_distance,
    should_prune,
    unstructured_component,
)

class TrainingDivergedError(RuntimeError):
    def __init__(self, client_id: int, round_index: int):
        self.client_id = client_id
        self.round_index = round_index
        super().__init__(
            f"client {client_id} diverged (non-finite loss) in round {round_index}"
        )


@dataclass
class ClientState:
    client_id: int
    spec: ModelSpec
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    eval_blocks: dict[int, tuple[np.ndarray, np.ndarray]]  # label -> (x, y), shared
    params: ParamSet
    mask: SparsityMask
    schedule: PruneSchedule
    optimizer: OptimizerState  # lr and momentum; each client_update starts a fresh velocity


@dataclass
class ServerState:
    spec: ModelSpec
    params: ParamSet
    client_ids: tuple[int, ...]
    sampling_rate: float = 1.0
    seed: int = 0
    round_index: int = 0
    # the served phase's correct count per (mask bits, label) under `params`;
    # a round that aggregates new params starts a fresh one
    served_counts: dict = field(default_factory=dict)


@dataclass
class ClientUpdateResult:
    """What a client uploads in a round (params, mask) and what the round
    records about it."""

    client_id: int
    params: ParamSet
    mask: SparsityMask
    validation_accuracy: float
    local_accuracy: float
    delta_unstructured: float
    delta_structured: float
    pruned_unstructured: bool
    pruned_structured: bool
    uplink_bits: int
    downlink_bits: int
    conv_flops: int

    def to_json_dict(self) -> dict:
        """The client's entry in a round record, but for the served accuracy
        that `run_round` adds: every field but the params and the mask, plus
        the mask's three sparsities."""
        row = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name not in ("client_id", "params", "mask")
        }
        row["id"] = self.client_id  # the key rounds.ndjson has always used
        row["sparsity"] = self.mask.sparsity()
        row["sparsity_unstructured"] = self.mask.covered_sparsity()
        row["sparsity_channel"] = self.mask.channel_sparsity()
        return row


def make_client(
    client_id: int,
    spec: ModelSpec,
    theta0: ParamSet,
    x_train, y_train, x_val, y_val,
    eval_blocks: dict[int, tuple[np.ndarray, np.ndarray]],
    schedule: PruneSchedule,
    learning_rate: float,
    momentum: float,
    hybrid: bool = False,
) -> ClientState:
    params = theta0.copy()
    if hybrid:
        mask = dense_mask(params, fc_coverage(params), with_channels=True)
    else:
        mask = dense_mask(params, full_coverage(params))
    return ClientState(
        client_id=client_id,
        spec=spec,
        x_train=x_train, y_train=y_train,
        x_val=x_val, y_val=y_val,
        eval_blocks=eval_blocks,
        params=params,
        mask=mask,
        schedule=schedule,
        optimizer=OptimizerState(learning_rate, momentum),
    )


def _correct(evaluate, spec: ModelSpec, params: ParamSet, block) -> int:
    """Examples of one label block that `params` classifies right. `evaluate`
    is the caller's module's `evaluate_accuracy` binding, which perfbench's
    traced runs wrap by name; its `100 * correct / len(x)` gives the count
    back exactly."""
    x, y = block
    return round(evaluate(spec, params, x, y) * len(x) / 100)


def _percent(correct: int, blocks: dict) -> float:
    total = sum(len(y) for _, y in blocks.values())
    return 100.0 * correct / total if total else 0.0


def block_accuracy(evaluate, spec: ModelSpec, params: ParamSet, blocks: dict) -> float:
    """Accuracy over a client's label blocks, `100 * sum(correct) / sum(n)`,
    each block scored alone through `evaluate`."""
    return _percent(sum(_correct(evaluate, spec, params, b) for b in blocks.values()), blocks)


def shared_accuracies(evaluate, spec: ModelSpec, clients: list[ClientState], key_of,
                      model_of, parallelism: int = 1, counts: dict | None = None) -> list[float]:
    """Each client's `block_accuracy` under the model `model_of(client)`.
    Clients with equal `key_of(client)` share one model, made once, and each
    distinct (key, label) pair is scored once through `evaluate`, the pairs
    run by `map_clients`. Pairs already in `counts` (pair -> correct count
    under the same models) are not scored again; the new ones are added."""
    counts = {} if counts is None else counts
    keys = [key_of(client) for client in clients]
    models: dict[bytes, ParamSet] = {}
    todo = {}
    for key, client in zip(keys, clients):
        for label, block in client.eval_blocks.items():
            if (key, label) not in counts:
                if key not in models:
                    models[key] = model_of(client)
                todo[key, label] = block
    counts.update(zip(todo, map_clients(
        lambda pair: _correct(evaluate, spec, models[pair[0]], todo[pair]), todo, parallelism
    )))
    return [
        _percent(sum(counts[key, label] for label in client.eval_blocks), client.eval_blocks)
        for key, client in zip(keys, clients)
    ]


def served_accuracies(evaluate, mask_op, spec: ModelSpec, params: ParamSet,
                      clients: list[ClientState], parallelism: int = 1,
                      counts: dict | None = None) -> list[float]:
    """Each client's `block_accuracy` under `params` through its own mask:
    `shared_accuracies` keyed by the mask's bits, so clients whose masks are
    equal bit for bit share one served model, `mask_op(params, mask)`."""
    return shared_accuracies(
        evaluate, spec, clients, lambda client: client.mask.flat.tobytes(),
        lambda client: mask_op(params, client.mask), parallelism, counts,
    )


def retained_scalar_count(params: ParamSet, mask: SparsityMask) -> int:
    """Scalars a client exchanges: kept learnables plus running statistics of
    kept channels."""
    if mask.layout != params.layout:
        raise MaskCongruenceError("mask incongruent with params")
    return int(np.count_nonzero(mask.flat))


def sample_size(n: int, sampling_rate: float) -> int:
    """Clients in each round: max(1, round(K*N)), at most N."""
    return min(n, max(1, round(sampling_rate * n)))


def sample_clients(server: ServerState, round_index: int) -> list[int]:
    """Uniform sample without replacement of `sample_size` client ids;
    deterministic in (seed, round)."""
    n = len(server.client_ids)
    if n == 0:
        raise ValueError("client registry is empty")
    m = sample_size(n, server.sampling_rate)
    rng = np.random.default_rng((server.seed, 9173, round_index))
    picks = rng.choice(n, size=m, replace=False)
    return sorted(server.client_ids[i] for i in picks)


def _candidates(params: ParamSet, client: ClientState):
    sched = client.schedule
    frac_us = sched.next_fraction("unstructured")
    un = derive_unstructured_mask(params, frac_us, client.mask.covered)
    if client.mask.channel_keep is None:
        return un, None
    return un, derive_channel_mask(params, sched.next_fraction("structured"))


def client_update(
    client: ClientState,
    theta_g: ParamSet,
    epochs: int,
    batch_size: int,
    *,
    rng: np.random.Generator,
    round_index: int = 0,
    exchange: bool = True,
) -> ClientUpdateResult:
    """One local round: adopt the downloaded params through the client's own
    mask, train `epochs` epochs of masked SGD, derive candidate masks after the
    first and last epoch, and prune when the accuracy/target/drift gates pass.
    A client whose mask keeps channel sets (`make_client(hybrid=True)`) also
    prunes channels.

    Mutates the ClientState (params, mask, schedule) and returns the
    result the client would upload.
    """
    if epochs < 2:
        raise ValueError("client updates need epochs >= 2 (distinct first/last epoch)")
    spec = client.spec
    hybrid = client.mask.channel_keep is not None
    downlink_bits = (
        BITS_PER_SCALAR * retained_scalar_count(theta_g, client.mask) if exchange else 0
    )
    start = theta_g if exchange else client.params
    params = apply_mask(start, client.mask)

    opt = OptimizerState(client.optimizer.learning_rate, client.optimizer.momentum)
    n = len(client.x_train)
    first = last = None
    for epoch in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, batch_size):
            idx = order[s:s + batch_size]
            _, cache = forward(spec, params, client.x_train[idx], "train")
            loss, grads = backward(cache, client.y_train[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(client.client_id, round_index)
            sgd_step(params, grads, opt, client.mask)
        if epoch == 0:
            first = _candidates(params, client)
        if epoch == epochs - 1:
            last = _candidates(params, client)

    val_acc = evaluate_accuracy(spec, params, client.x_val, client.y_val)
    delta_us = mask_distance(first[0], last[0])
    delta_s = mask_distance(first[1], last[1]) if hybrid else 0.0
    pruned_us = should_prune(val_acc, client.schedule, delta_us, "unstructured")
    pruned_s = hybrid and should_prune(val_acc, client.schedule, delta_s, "structured")

    if pruned_us or pruned_s:
        if hybrid:
            ch_part = last[1] if pruned_s else channel_component(client.mask, params)
            fc_part = last[0] if pruned_us else unstructured_component(client.mask, params)
            client.mask = combine_masks(ch_part, fc_part, params)
        else:
            client.mask = last[0]
        if pruned_s:
            client.schedule = advance_schedule(client.schedule, "structured")
        if pruned_us:
            client.schedule = advance_schedule(client.schedule, "unstructured")
        params = apply_mask(params, client.mask)

    local_acc = block_accuracy(evaluate_accuracy, spec, params, client.eval_blocks)
    client.params = params

    mask_changed = pruned_us or pruned_s
    uplink_bits = 0
    if exchange:
        uplink_bits = BITS_PER_SCALAR * retained_scalar_count(params, client.mask)
        if mask_changed:
            uplink_bits += BITS_PER_MASK_POSITION * client.mask.bit_length()
    return ClientUpdateResult(
        client_id=client.client_id,
        params=params,
        mask=client.mask,
        validation_accuracy=val_acc,
        local_accuracy=local_acc,
        delta_unstructured=delta_us,
        delta_structured=delta_s,
        pruned_unstructured=pruned_us,
        pruned_structured=pruned_s,
        uplink_bits=uplink_bits,
        downlink_bits=downlink_bits,
        conv_flops=conv_flops(spec, client.mask.channel_keep).current_total,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _fold_mean(results, template: ParamSet, fallback: ParamSet | None,
               strict: bool) -> ParamSet:
    """Per position, the mean over the results whose mask keeps it. Without
    a fallback (fedavg) every position counts as kept; with one, positions
    kept by too few clients (none, or not all when `strict`) keep its value."""
    rs = sorted(results, key=lambda r: r.client_id)
    for r in rs:
        if r.params.layout != template.layout:
            raise ValueError(f"client {r.client_id} params incongruent with the global model")
    acc = np.zeros(template.flat.size, dtype=np.float64)
    cnt = np.zeros(template.flat.size, dtype=np.int64)
    for r in rs:  # ascending client-id: summation order is fixed
        keep = True if fallback is None else r.mask.flat
        acc += r.params.flat * keep
        cnt += keep
    mean = (acc / np.maximum(cnt, 1)).astype(template.flat.dtype)
    kept = (cnt == len(rs)) if strict else (cnt > 0)
    prev = template if fallback is None else fallback
    return ParamSet.over(template.layout, np.where(kept, mean, prev.flat))


def aggregate_sub_fedavg(results, theta_g_prev: ParamSet,
                         mode: str = "per-position") -> ParamSet:
    """Per parameter position: mean over the selected clients whose mask keeps
    it; positions kept by nobody retain the previous global value. BN running
    statistics average over the keepers of the owning channel.

    mode="strict-intersection" averages only positions every selected client
    kept (comparison mode; degenerates at high sparsity).
    """
    if not results:
        raise ValueError("aggregate_sub_fedavg needs at least one client result")
    if mode not in ("per-position", "strict-intersection"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    return _fold_mean(
        results, theta_g_prev, theta_g_prev, strict=(mode == "strict-intersection")
    )


def aggregate_fedavg(results) -> ParamSet:
    """Uniform elementwise mean over the selected clients (equal shard volumes)."""
    if not results:
        raise ValueError("aggregate_fedavg needs at least one client result")
    return _fold_mean(results, results[0].params, None, strict=False)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def map_clients(fn, items, parallelism: int = 1) -> list:
    """`[fn(i) for i in items]`, on `parallelism` threads when that is more
    than one and there is more than one item. Results come back in input
    order, and an exception raised by `fn` propagates either way."""
    items = list(items)
    if parallelism > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(fn, items))
    return [fn(i) for i in items]


def client_mean(clients: list[dict], key: str) -> float:
    """Mean of one field over a round record's client entries."""
    return float(np.mean([c[key] for c in clients]))


def run_round(
    server: ServerState,
    clients: dict[int, ClientState],
    algorithm: str,
    *,
    epochs: int = 5,
    batch_size: int = 10,
    parallelism: int = 1,
    aggregation_mode: str = "per-position",
) -> dict:
    """sample -> local updates -> aggregate -> served evaluation; returns the
    round record (one line of rounds.ndjson): the client entries, with their
    means and totals.

    The local updates and the served evaluations run on `parallelism`
    workers. Concurrent and serial execution produce identical records: every
    client update only touches its own state, and results fold in client-id
    order. Clients with bit-equal masks share their served model's scores
    (`served_accuracies`), and the counts stay on the server
    (`ServerState.served_counts`) until the next aggregation.
    """
    if algorithm not in ALGORITHM_CHOICES:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHM_CHOICES}")
    round_index = server.round_index
    selected = sample_clients(server, round_index)
    exchange = algorithm != "standalone"

    def work(cid: int) -> ClientUpdateResult:
        rng = np.random.default_rng((server.seed, round_index, cid))
        return client_update(
            clients[cid], server.params, epochs, batch_size,
            rng=rng, round_index=round_index, exchange=exchange,
        )

    results = map_clients(work, selected, parallelism)

    if exchange:
        if algorithm == "fedavg":
            server.params = aggregate_fedavg(results)
        else:
            server.params = aggregate_sub_fedavg(results, server.params, mode=aggregation_mode)
        server.served_counts = {}
        served = served_accuracies(
            evaluate_accuracy, apply_mask, server.spec, server.params,
            [clients[cid] for cid in selected], parallelism, server.served_counts,
        )
    else:
        served = [r.local_accuracy for r in results]
    server.round_index = round_index + 1

    rows = [{**r.to_json_dict(), "served_accuracy": acc} for r, acc in zip(results, served)]
    return {
        "round": round_index,
        "algorithm": algorithm,
        "selected": selected,
        "mean_local_accuracy": client_mean(rows, "local_accuracy"),
        "mean_served_accuracy": client_mean(rows, "served_accuracy"),
        "mean_sparsity_unstructured": client_mean(rows, "sparsity_unstructured"),
        "mean_sparsity_channel": client_mean(rows, "sparsity_channel"),
        "total_uplink_bits": sum(c["uplink_bits"] for c in rows),
        "total_downlink_bits": sum(c["downlink_bits"] for c in rows),
        "total_conv_flops": sum(c["conv_flops"] for c in rows),
        "clients": rows,
    }
