"""The benchmark's workloads: configs generated from a seed, and output checks.

Every workload is a list of ``(label, raw_config)`` pairs; one sample of the
workload runs ``fracnls.cli.run`` once per pair, each into its own output
directory named by the label.  ``src/`` only ever sees these configs.

The checks read the artifacts a sample wrote and return a list of problems
(empty when the outputs are right).  A timing is never a check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WORKLOADS = ("ldp-triangle", "cemetery-snapshots", "oracle-suite")


# README ldp example at 2000 replicates.  At eps = 0.04 the event probability
# is about 4.2e-3, so a rung comes out empty (and the slope undefined) with
# probability exp(-2000 * 4.2e-3) ~ 2e-4 per seed; 1000 replicates would
# leave that at 1.5%.
LDP_REPLICATES = 2000
LDP_LADDER = [0.25, 0.16, 0.09, 0.04]

# Criterion-10 config shortened in T at its dt = 0.25 / 2000 = 1.25e-4.
# Coarsening n instead spuriously absorbs the defocusing twin.
CEMETERY_N = 100
CEMETERY_T = CEMETERY_N * 1.25e-4

# Pairwise agreement of the three rate estimates (acceptance criterion 07).
RATE_TOLERANCE = 0.25


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """Raw configs for one sample of ``workload`` at workload seed ``seed``."""
    if workload == "ldp-triangle":
        return [("ldp", {
            "kind": "ldp", "H": 0.7, "T": 1.0, "n": 16, "grid": {"N": 8},
            "nl": None, "u0": {"type": "zero"},
            "noise": {"eigenvalues": [0.2, 1, 0.05, 0.01, 0.005, 0.01, 0.05, 1]},
            "event": {"kind": "terminal-ball-exit", "threshold": 0.64},
            "eps_ladder": list(LDP_LADDER),
            "replicates": LDP_REPLICATES, "seed": seed,
            "optimizer": {"enabled": True},
        })]
    if workload == "cemetery-snapshots":
        focusing = {
            "kind": "solve", "T": CEMETERY_T, "n": CEMETERY_N, "grid": {"N": 4096, "L": 2.0},
            "nl": {"kind": "kerr", "lam": 1, "sigma": 2},
            "u0": {"type": "gaussian", "amplitude": 8.0, "width": 0.25},
            "threshold": 1000.0, "snapshot_every": 1, "seed": seed,
        }
        defocusing = json.loads(json.dumps(focusing))
        defocusing["nl"]["lam"] = -1
        return [("focusing", focusing), ("defocusing", defocusing)]
    if workload == "oracle-suite":
        return [("oracle", {"kind": "oracle-suite", "seed": seed})]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def check_ldp(out: Path) -> list[str]:
    """Monte Carlo slope, pseudo-inverse rate and optimizer bound agree pairwise."""
    problems: list[str] = []
    report = _load_json(out / "rate_report.json", problems)
    if report is None:
        return problems
    values = {k: report.get(k) for k in ("slope_value", "pinv_rate", "variational_bound")}
    missing = [k for k, v in values.items() if not isinstance(v, (int, float))]
    if missing:
        return [f"rate_report.json: no value for {', '.join(missing)}"]
    names = list(values)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, vb = values[a], values[b]
            if not abs(va - vb) <= RATE_TOLERANCE * min(va, vb):
                problems.append(f"{a}={va:.6g} and {b}={vb:.6g} differ by more than 25%")
    if not (out / "ladder.csv").is_file():
        problems.append("ladder.csv missing")
    return problems


def _snapshot_indices(out: Path) -> list[int]:
    return sorted(int(p.name[len("field_"):-len(".csv")]) for p in out.glob("field_*.csv"))


def _cemetery_flags(out: Path, problems: list[str]) -> list[int] | None:
    try:
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        return [int(r.rsplit(",", 1)[-1]) for r in rows]
    except (OSError, ValueError) as exc:
        problems.append(f"diagnostics.csv: unreadable ({exc})")
        return None


def check_cemetery(focusing: Path, defocusing: Path, T: float, n: int) -> list[str]:
    """Focusing run absorbed before T with nothing serialized from the cemetery
    on; defocusing twin global with every snapshot present."""
    problems: list[str] = []
    traj = _load_json(focusing / "trajectory.json", problems)
    if traj is not None:
        k = traj.get("cemetery_index")
        t_star = traj.get("blowup_time")
        if k is None or t_star is None or not t_star < T:
            problems.append(f"focusing run not absorbed before T={T}: {traj}")
        else:
            snaps = _snapshot_indices(focusing)
            if snaps != list(range(k)):
                problems.append(
                    f"focusing snapshots {snaps[:3]}..{snaps[-3:]} are not exactly 0..{k - 1}"
                )
            flags = _cemetery_flags(focusing, problems)
            if flags is not None and flags != [int(i >= k) for i in range(n + 1)]:
                problems.append(f"focusing diagnostics.csv cemetery flags wrong for index {k}")
    twin = _load_json(defocusing / "trajectory.json", problems)
    if twin is not None:
        if twin.get("cemetery_index") is not None:
            problems.append(f"defocusing twin absorbed: {twin}")
        if _snapshot_indices(defocusing) != list(range(n + 1)):
            problems.append("defocusing twin snapshots are not exactly 0..n")
        flags = _cemetery_flags(defocusing, problems)
        if flags is not None and flags != [0] * (n + 1):
            problems.append("defocusing diagnostics.csv has cemetery flags set")
    return problems


def check_oracle(out: Path) -> list[str]:
    """Every oracle in ``oracle_report.json`` passed."""
    problems: list[str] = []
    report = _load_json(out / "oracle_report.json", problems)
    if report is None:
        return problems
    records = report.get("oracles") or []
    failed = [r.get("oracle") for r in records if not r.get("passed")]
    if report.get("failed") != 0 or failed:
        problems.append(f"oracle_report.json: failed={report.get('failed')} {failed}")
    if not records or report.get("total") != len(records):
        problems.append("oracle_report.json: total does not match the oracle records")
    return problems


def check(workload: str, out_root: Path, pairs: list[tuple[str, dict]]) -> list[str]:
    """Problems with the artifacts one sample of ``workload`` left in ``out_root``."""
    if workload == "ldp-triangle":
        return check_ldp(out_root / "ldp")
    if workload == "cemetery-snapshots":
        cfg = dict(pairs)["focusing"]
        return check_cemetery(out_root / "focusing", out_root / "defocusing", cfg["T"], cfg["n"])
    if workload == "oracle-suite":
        return check_oracle(out_root / "oracle")
    raise ValueError(f"unknown workload {workload!r}")


def artifact_digest(out_root: Path) -> tuple[int, int, str]:
    """(file count, total bytes, sha256) over every file under ``out_root``.

    The digest covers each file's relative path and contents in sorted path
    order, so two commits that honour the byte-identity contract agree on it.
    """
    digest = hashlib.sha256()
    files = sorted(p for p in out_root.rglob("*") if p.is_file())
    total = 0
    for path in files:
        digest.update(path.relative_to(out_root).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                total += len(block)
        digest.update(b"\0")
    return len(files), total, digest.hexdigest()

