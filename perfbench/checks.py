"""Output checks for one experiment's run directory.

The checks read only the artifacts, so they do not depend on the code under
test: the resolved config comes from the run's own config.ini.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from pathlib import Path

ARTIFACTS = (
    "summary.csv", "rounds.ndjson", "plot_accuracy_vs_round.csv",
    "plot_accuracy_vs_sparsity.csv", "client_accuracy.csv", "cost_ledger.json", "config.ini",
)
# the byte-identical set: same config and seed must give the same bytes
DIGESTED = ("summary.csv", "client_accuracy.csv", "cost_ledger.json")


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_config(run_dir: Path) -> dict[str, str]:
    parser = configparser.ConfigParser()
    parser.read(run_dir / "config.ini")
    return {key: value for section in parser.sections() for key, value in parser.items(section)}


def digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DIGESTED:
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def _targets(cfg: dict[str, str]) -> dict[str, float]:
    algorithm = cfg["algorithm"]
    return {
        "unstructured": float(cfg["target_unstructured"])
        if algorithm in ("sub-fedavg-un", "sub-fedavg-hy") else 0.0,
        "structured": float(cfg["target_structured"]) if algorithm == "sub-fedavg-hy" else 0.0,
    }


def on_rate_grid(level: float, rate: float, target: float) -> bool:
    """A schedule level is min(k * rate, target) for some whole k >= 0."""
    if not 0.0 <= level <= target:
        return False
    if level == target:
        return True
    return rate > 0 and abs(level / rate - round(level / rate)) < 1e-9


def check_run(run_dir: Path, expected_comm_mb: float | None = None) -> tuple[list[str], dict]:
    """Return (problems, facts) for one finished run directory.

    facts holds final_acc (local accuracy for sub-fedavg, served accuracy for
    fedavg, as the paper reports them), comm_mb and the artifact digest.
    """
    missing = [name for name in ARTIFACTS if not (run_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], {}
    problems = []
    cfg = read_config(run_dir)
    summary = read_csv(run_dir / "summary.csv")
    clients = read_csv(run_dir / "client_accuracy.csv")
    ledger = json.loads((run_dir / "cost_ledger.json").read_text())

    if len(summary) != int(cfg["rounds"]):
        problems.append(f"summary has {len(summary)} rows for {cfg['rounds']} rounds")
    accuracies = [float(r[k]) for r in summary
                  for k in ("mean_local_accuracy", "mean_served_accuracy")]
    accuracies += [float(r[k]) for r in clients for k in ("local_accuracy", "served_accuracy")]
    if not all(0.0 <= a <= 100.0 for a in accuracies):
        problems.append("an accuracy lies outside [0, 100]")
    total_bytes = float(summary[-1]["cumulative_bytes"])
    if total_bytes != ledger["total_bytes"]:
        problems.append(
            f"summary cumulative_bytes {total_bytes} != ledger total_bytes {ledger['total_bytes']}"
        )
    targets = _targets(cfg)
    for row in clients:
        for kind, target in targets.items():
            level = float(row[f"schedule_level_{kind}"])
            if not on_rate_grid(level, float(cfg[f"rate_{kind}"]), target):
                problems.append(
                    f"client {row['client_id']}: {kind} level {level} is off the rate grid "
                    f"or above target {target}"
                )
    comm_mb = total_bytes / 1e6
    if expected_comm_mb is not None and abs(comm_mb - expected_comm_mb) > 1e-9 * expected_comm_mb:
        problems.append(f"comm_mb {comm_mb} != closed form {expected_comm_mb}")

    last = summary[-1]
    acc_key = "mean_served_accuracy" if cfg["algorithm"] == "fedavg" else "mean_local_accuracy"
    facts = {
        "final_acc": float(last[acc_key]),
        "comm_mb": comm_mb,
        "digest": digest(run_dir),
    }
    return problems, facts
