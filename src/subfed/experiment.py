"""Config-driven experiment execution and on-disk artifacts.

A run writes into a temp directory and is renamed to runs/run-NNNN on success,
so artifacts are fully written or absent and reruns never overwrite. Every
output embeds the resolved config (minus execution-only keys) for provenance.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, config_to_ini
from .data import (
    Dataset,
    channel_stats,
    label_blocks,
    load_cifar_binary,
    load_idx,
    normalize,
    pad_images,
    partition_shards,
    split_per_class,
    synth_dataset,
)
from .engine import builtin_spec, class_count, evaluate_accuracy, init_params
from .federation import (
    ClientState,
    ServerState,
    client_mean,
    make_client,
    run_round,
    sample_size,
    served_accuracies,
    shared_accuracies,
)
from .metrics import BITS_PER_MASK_POSITION, BITS_PER_SCALAR, conv_flops
from .pruning import apply_mask

# keys that affect execution but not results; left out of provenance echoes so
# identical experiments produce byte-identical summaries
_EXECUTION_KEYS = ("parallelism", "output_dir")


def provenance_dict(cfg: ExperimentConfig) -> dict:
    echo = asdict(cfg)
    for key in _EXECUTION_KEYS:
        echo.pop(key)
    return echo


def _load_idx_pair(root: Path, name: str) -> tuple[Dataset, Dataset]:
    base = root / name
    train = load_idx(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte",
                     name=f"{name}-train")
    test = load_idx(base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte",
                    name=f"{name}-test")
    return train, test


def _load_cifar(root: Path, name: str) -> tuple[Dataset, Dataset]:
    base = root / name
    if name == "cifar10":
        train = load_cifar_binary(
            [base / f"data_batch_{i}.bin" for i in range(1, 6)], name=f"{name}-train"
        )
        test = load_cifar_binary([base / "test_batch.bin"], name=f"{name}-test")
    else:
        train = load_cifar_binary([base / "train.bin"], cifar100=True, name=f"{name}-train")
        test = load_cifar_binary([base / "test.bin"], cifar100=True, name=f"{name}-test")
    return train, test


def load_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Train/test pair per config, padded to the model input and normalized by
    train-set channel statistics (synthetic data is already standard normal)."""
    spec = builtin_spec(cfg.resolved_model())
    if cfg.dataset == "synthetic":
        full = synth_dataset(
            cfg.synth_classes,
            cfg.synth_per_class,
            cfg.synth_separation,
            cfg.seed,
            image_shape=spec.input_shape,
        )
        return split_per_class(full, cfg.synth_test_per_class)
    root = cfg.resolved_data_root()
    if root is None:
        raise ConfigError(f"dataset {cfg.dataset!r} needs a data root")
    if cfg.dataset in ("mnist", "emnist"):
        train, test = _load_idx_pair(root, cfg.dataset)
    else:
        train, test = _load_cifar(root, cfg.dataset)
    h, w = spec.input_shape[1], spec.input_shape[2]
    train = pad_images(train, h, w)
    test = pad_images(test, h, w)
    mean, std = channel_stats(train)
    return normalize(train, mean, std), normalize(test, mean, std)


def build_experiment(cfg: ExperimentConfig):
    """Wire config -> (server, clients dict); deterministic in cfg.seed.
    Each client holds the test set's blocks of its labels (`label_blocks`),
    sliced once and shared."""
    spec = builtin_spec(cfg.resolved_model())
    train, test = load_datasets(cfg)
    outputs = class_count(spec)
    if train.class_count > outputs:
        keys = "'synth_classes'" if cfg.dataset == "synthetic" else "'dataset'"
        raise ConfigError(
            f"keys {keys}/'model': dataset {cfg.dataset!r} has {train.class_count} labels, "
            f"more than the {outputs} outputs of model {spec.name!r}"
        )
    blocks = label_blocks(test)
    partition = partition_shards(
        train, cfg.clients, cfg.shards_per_client, cfg.resolved_shard_size(), cfg.seed
    )
    theta0 = init_params(spec, cfg.seed)
    clients: dict[int, ClientState] = {}
    for cid, indices in partition.assignment.items():
        rng = np.random.default_rng((cfg.seed, 31, cid))
        perm = rng.permutation(len(indices))
        n_val = cfg.validation_size(len(indices))
        val_idx = indices[perm[:n_val]]
        train_idx = indices[perm[n_val:]]
        clients[cid] = make_client(
            cid,
            cfg,
            theta0,
            train.images[train_idx], train.labels[train_idx],
            train.images[val_idx], train.labels[val_idx],
            {c: blocks[c] for c in partition.client_labels[cid]},
        )
    server = ServerState(spec=spec, params=theta0.copy(), client_ids=tuple(sorted(clients)))
    return server, clients


SUMMARY_COLUMNS = (
    "round", "algorithm", "mean_local_accuracy", "mean_served_accuracy",
    "mean_sparsity_unstructured", "mean_sparsity_channel",
    "cumulative_bytes", "cumulative_conv_flops",
)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: Path, comment: str, header, rows) -> None:
    with open(path, "w") as f:
        f.write(f"# config: {comment}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def run_experiment(cfg: ExperimentConfig, progress=None) -> Path:
    """Execute the configured experiment; returns the finished run directory.
    `progress`, if given, is called with each round record as it is written."""
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    tmp = out_root / f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir()
    try:
        run_dir = _run_into(cfg, tmp, progress)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return run_dir


def _next_run_name(out_root: Path) -> str:
    taken = []
    for entry in out_root.glob("run-*"):
        suffix = entry.name[4:]
        if suffix.isdigit():
            taken.append(int(suffix))
    return f"run-{(max(taken) + 1 if taken else 1):04d}"


def _publish(tmp: Path, out_root: Path) -> Path:
    """Rename a finished run directory to the next free run-NNNN. The name is
    claimed by creating it, which fails if another run took it since the scan;
    then the rename replaces the claimed, still empty, directory."""
    while True:
        final = out_root / _next_run_name(out_root)
        try:
            final.mkdir()
        except FileExistsError:
            continue
        os.replace(tmp, final)
        return final


def write_round_artifacts(run_dir: Path, cfg: ExperimentConfig, records: list[dict]) -> None:
    """Write summary.csv, both plot CSVs and cost_ledger.json from the round
    records alone (the lines of rounds.ndjson after its config echo)."""
    echo = json.dumps(provenance_dict(cfg), sort_keys=True)
    summary_rows = []
    cum_bits = cum_flops = 0
    for r in records:
        cum_bits += r["total_uplink_bits"] + r["total_downlink_bits"]
        cum_flops += r["total_conv_flops"]
        summary_rows.append((
            r["round"], cfg.algorithm, r["mean_local_accuracy"], r["mean_served_accuracy"],
            r["mean_sparsity_unstructured"], r["mean_sparsity_channel"],
            cum_bits / 8, cum_flops,
        ))
    _write_csv(run_dir / "summary.csv", echo, SUMMARY_COLUMNS, summary_rows)
    _write_csv(
        run_dir / "plot_accuracy_vs_round.csv", echo,
        ("round", "mean_local_accuracy", "mean_served_accuracy"),
        [(r["round"], r["mean_local_accuracy"], r["mean_served_accuracy"]) for r in records],
    )
    _write_csv(
        run_dir / "plot_accuracy_vs_sparsity.csv", echo,
        ("round", "mean_sparsity", "mean_local_accuracy"),
        [(r["round"], client_mean(r["clients"], "sparsity"), r["mean_local_accuracy"])
         for r in records],
    )
    uplink = sum(r["total_uplink_bits"] for r in records)
    downlink = sum(r["total_downlink_bits"] for r in records)
    ledger = {
        "bits_per_scalar": BITS_PER_SCALAR,
        "bits_per_mask_position": BITS_PER_MASK_POSITION,
        "total_uplink_bits": uplink,
        "total_downlink_bits": downlink,
        "total_bytes": (uplink + downlink) / 8,
        "rounds": [
            {str(c["id"]): [c["uplink_bits"], c["downlink_bits"]] for c in r["clients"]}
            for r in records
        ],
        "config": provenance_dict(cfg),
    }
    (run_dir / "cost_ledger.json").write_text(json.dumps(ledger, sort_keys=True, indent=1))


def _run_into(cfg: ExperimentConfig, tmp: Path, progress) -> Path:
    server, clients = build_experiment(cfg)
    records: list[dict] = []
    with open(tmp / "rounds.ndjson", "w") as stream:
        stream.write(json.dumps({"config": provenance_dict(cfg)}, sort_keys=True) + "\n")
        for _ in range(cfg.rounds):
            record = run_round(server, clients, cfg)
            records.append(record)
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            if progress is not None:
                progress(record)

    # final per-client table covers every client, not only the last-round
    # sample. A client's params change only in client_update, which scores
    # them on its eval set, so its latest record holds its local accuracy;
    # clients never sampled all still hold copies of the initial params, so
    # clients with bit-equal params share their scores. Served accuracies
    # are all scored under the global params as they are now: the server's
    # (mask, label) counts already hold the final round's pairs, so only
    # pairs of clients that missed that round can need an evaluation.
    parallelism = cfg.resolved_parallelism()
    latest = {c["id"]: c for record in records for c in record["clients"]}
    local = {cid: c["local_accuracy"] for cid, c in latest.items()}
    unsampled = [cid for cid in sorted(clients) if cid not in latest]
    local.update(zip(unsampled, shared_accuracies(
        evaluate_accuracy, server.spec, [clients[cid] for cid in unsampled],
        lambda client: client.params.flat.tobytes(), lambda client: client.params, parallelism,
    )))
    if cfg.algorithm == "standalone":
        served = local
    else:
        served = dict(zip(sorted(clients), served_accuracies(
            evaluate_accuracy, apply_mask, server.spec, server.params,
            [clients[cid] for cid in sorted(clients)], parallelism, server.served_counts,
        )))
    client_rows = [
        (
            cid, local[cid], served[cid],
            client.mask.sparsity(),
            client.mask.covered_sparsity(),
            client.mask.channel_sparsity(),
            client.level_unstructured,
            client.level_structured,
        )
        for cid, client in sorted(clients.items())
    ]
    _write_csv(
        tmp / "client_accuracy.csv", json.dumps(provenance_dict(cfg), sort_keys=True),
        ("client_id", "local_accuracy", "served_accuracy", "sparsity",
         "sparsity_unstructured", "sparsity_channel",
         "schedule_level_unstructured", "schedule_level_structured"),
        client_rows,
    )
    write_round_artifacts(tmp, cfg, records)
    (tmp / "config.ini").write_text(config_to_ini(cfg))

    return _publish(tmp, Path(cfg.output_dir))


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------

COMPARE_COLUMNS = (
    "run", "algorithm", "final_local_acc", "final_served_acc",
    "sparsity_unstructured", "sparsity_channel", "total_mb", "flop_reduction",
)


def _read_summary(path: Path):
    if path.is_dir():
        path = path / "summary.csv"
    if not path.exists():
        raise ValueError(f"no summary at {path}")
    config = None
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    if not rows:
        raise ValueError(f"{path}: summary has no data rows")
    return config, rows


def compare_runs(paths) -> tuple[list[dict], str]:
    """Side-by-side final metrics for >= 2 runs, plus deltas vs the first run."""
    paths = [Path(p) for p in paths]
    if len(paths) < 2:
        raise ValueError("compare needs at least two runs")
    entries = []
    for path in paths:
        config, rows = _read_summary(path)
        last = rows[-1]
        flop_reduction = 1.0
        if config is not None:
            model = config.get("model") or ExperimentConfig(
                dataset=config.get("dataset", "synthetic")
            ).resolved_model()
            dense = conv_flops(builtin_spec(model)).dense_total
            if len(rows) >= 2:
                last_round_flops = float(last["cumulative_conv_flops"]) - float(
                    rows[-2]["cumulative_conv_flops"]
                )
            else:
                last_round_flops = float(last["cumulative_conv_flops"])
            per_client = last_round_flops / sample_size(
                int(config.get("clients", 1)), float(config.get("sampling_rate", 1.0))
            )
            if dense > 0 and per_client > 0:
                flop_reduction = dense / per_client
        entries.append({
            "run": str(path),
            "algorithm": last["algorithm"],
            "final_local_acc": float(last["mean_local_accuracy"]),
            "final_served_acc": float(last["mean_served_accuracy"]),
            "sparsity_unstructured": float(last["mean_sparsity_unstructured"]),
            "sparsity_channel": float(last["mean_sparsity_channel"]),
            "total_mb": float(last["cumulative_bytes"]) / 1e6,
            "flop_reduction": flop_reduction,
        })
    base = entries[0]
    for entry in entries:
        entry["delta_local_acc"] = entry["final_local_acc"] - base["final_local_acc"]
        entry["delta_total_mb"] = entry["total_mb"] - base["total_mb"]
    headers = list(COMPARE_COLUMNS) + ["delta_local_acc", "delta_total_mb"]
    widths = {h: max(len(h), *(len(_cell(e, h)) for e in entries)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for entry in entries:
        lines.append("  ".join(_cell(entry, h).ljust(widths[h]) for h in headers))
    return entries, "\n".join(lines)


def _cell(entry: dict, key: str) -> str:
    value = entry[key]
    return f"{value:.4f}" if isinstance(value, float) else str(value)
