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

from .config import AGGREGATION_CHOICES, ExperimentConfig
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
    SparsityMask,
    apply_mask,
    channel_component,
    combine_masks,
    dense_mask,
    derive_channel_mask,
    derive_unstructured_mask,
    fc_coverage,
    full_coverage,
    mask_distance,
    next_level,
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
    """A client's data and its personal subnetwork: params, mask and the
    cumulative sparsity each kind of pruning has reached."""

    client_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    eval_blocks: dict[int, tuple[np.ndarray, np.ndarray]]  # label -> (x, y), shared
    params: ParamSet
    mask: SparsityMask
    level_unstructured: float = 0.0
    level_structured: float = 0.0


@dataclass
class ServerState:
    spec: ModelSpec
    params: ParamSet
    client_ids: tuple[int, ...]
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
    cfg: ExperimentConfig,
    theta0: ParamSet,
    x_train, y_train, x_val, y_val,
    eval_blocks: dict[int, tuple[np.ndarray, np.ndarray]],
) -> ClientState:
    """A client holding a copy of `theta0` under a dense mask over the domain
    `cfg.algorithm` prunes: the channels and fc layers for sub-fedavg-hy,
    every weight and bias otherwise."""
    params = theta0.copy()
    hybrid = cfg.algorithm == "sub-fedavg-hy"
    mask = dense_mask(params, (fc_coverage if hybrid else full_coverage)(params))
    return ClientState(
        client_id=client_id,
        x_train=x_train, y_train=y_train,
        x_val=x_val, y_val=y_val,
        eval_blocks=eval_blocks,
        params=params,
        mask=mask,
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
                      model_of, parallelism: int, counts: dict | None = None) -> list[float]:
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
                      clients: list[ClientState], parallelism: int,
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


def sample_clients(server: ServerState, cfg: ExperimentConfig) -> list[int]:
    """Uniform sample without replacement of `sample_size` client ids;
    deterministic in (seed, round)."""
    n = len(server.client_ids)
    if n == 0:
        raise ValueError("client registry is empty")
    m = sample_size(n, cfg.sampling_rate)
    rng = np.random.default_rng((cfg.seed, 9173, server.round_index))
    picks = rng.choice(n, size=m, replace=False)
    return sorted(server.client_ids[i] for i in picks)


def client_update(
    client: ClientState,
    server: ServerState,
    cfg: ExperimentConfig,
    *,
    rng: np.random.Generator,
) -> ClientUpdateResult:
    """One local round: adopt the server's params through the client's own
    mask (a standalone client keeps its own params), then train
    `cfg.local_epochs` epochs of masked SGD. The sub-fedavg algorithms
    derive candidate masks after the first and last epoch and prune when the
    accuracy/target/drift gates pass: sub-fedavg-un over the client's
    covered positions, sub-fedavg-hy also its channels. fedavg and
    standalone derive no candidates and record drifts of 0.

    Mutates the ClientState (params, mask, levels) and returns the result
    the client would upload.
    """
    spec = server.spec
    exchange = cfg.algorithm != "standalone"
    hybrid = cfg.algorithm == "sub-fedavg-hy"
    prunes = hybrid or cfg.algorithm == "sub-fedavg-un"
    next_us = next_level(client.level_unstructured, cfg.rate_unstructured,
                         cfg.target_unstructured)
    next_s = next_level(client.level_structured, cfg.rate_structured, cfg.target_structured)
    downlink_bits = (
        BITS_PER_SCALAR * retained_scalar_count(server.params, client.mask) if exchange else 0
    )
    params = apply_mask(server.params if exchange else client.params, client.mask)

    opt = OptimizerState(cfg.learning_rate, cfg.momentum)
    epochs = cfg.local_epochs
    n = len(client.x_train)
    candidates = []  # (unstructured, channel or None) after the first and last epoch
    for epoch in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, cfg.batch_size):
            idx = order[s:s + cfg.batch_size]
            cache = forward(spec, params, client.x_train[idx], "train")[1]
            loss, grads = backward(cache, client.y_train[idx])
            del cache  # so one step's arrays are alive at a time, not two
            if not math.isfinite(loss):
                raise TrainingDivergedError(client.client_id, server.round_index)
            sgd_step(params, grads, opt, client.mask)
            del grads
        if prunes and epoch in (0, epochs - 1):
            candidates.append((
                derive_unstructured_mask(params, next_us, client.mask.covered),
                derive_channel_mask(params, next_s) if hybrid else None,
            ))

    val_acc = evaluate_accuracy(spec, params, client.x_val, client.y_val)
    delta_us = delta_s = 0.0
    pruned_us = pruned_s = False
    if prunes:
        (first_us, first_s), (last_us, last_s) = candidates
        delta_us = mask_distance(first_us, last_us)
        pruned_us = should_prune(val_acc, cfg.acc_threshold, client.level_unstructured,
                                 cfg.target_unstructured, delta_us, cfg.eps_unstructured)
        if hybrid:
            delta_s = mask_distance(first_s, last_s)
            pruned_s = should_prune(val_acc, cfg.acc_threshold, client.level_structured,
                                    cfg.target_structured, delta_s, cfg.eps_structured)

    if pruned_us or pruned_s:
        if hybrid:
            ch_part = last_s if pruned_s else channel_component(client.mask, params)
            fc_part = last_us if pruned_us else unstructured_component(client.mask, params)
            client.mask = combine_masks(ch_part, fc_part, params)
        else:
            client.mask = last_us
        if pruned_s:
            client.level_structured = next_s
        if pruned_us:
            client.level_unstructured = next_us
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
    if mode not in AGGREGATION_CHOICES:
        raise ValueError(f"unknown aggregation mode {mode!r}, expected one of "
                         f"{AGGREGATION_CHOICES}")
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


def map_clients(fn, items, parallelism: int) -> list:
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


def run_round(server: ServerState, clients: dict[int, ClientState],
              cfg: ExperimentConfig) -> dict:
    """sample -> local updates -> aggregate -> served evaluation under
    `cfg.algorithm`; returns the round record (one line of rounds.ndjson):
    the client entries, with their means and totals.

    The local updates and the served evaluations run on
    `cfg.resolved_parallelism()` workers. Concurrent and serial execution
    produce identical records: every client update only touches its own
    state, and results fold in client-id order. Clients with bit-equal masks
    share their served model's scores (`served_accuracies`), and the counts
    stay on the server (`ServerState.served_counts`) until the next
    aggregation.
    """
    round_index = server.round_index
    selected = sample_clients(server, cfg)
    parallelism = cfg.resolved_parallelism()
    exchange = cfg.algorithm != "standalone"

    def work(cid: int) -> ClientUpdateResult:
        rng = np.random.default_rng((cfg.seed, round_index, cid))
        return client_update(clients[cid], server, cfg, rng=rng)

    results = map_clients(work, selected, parallelism)

    if exchange:
        if cfg.algorithm == "fedavg":
            server.params = aggregate_fedavg(results)
        else:
            server.params = aggregate_sub_fedavg(results, server.params, mode=cfg.aggregation)
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
        "algorithm": cfg.algorithm,
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
