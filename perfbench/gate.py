"""Correctness gate: every check a benchmark run makes on the CLI's outputs.

Each check counts as one attempt; `failed / attempted` is the run's
`failed_ratio`.  A run with any failed check is reported as not correct.
Sample quality is chaotic across seeds, so beyond the hedge bound it is
recorded as information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

HEDGE_RATIO_BOUND = 0.5     # repl/init bound of acceptance check 09
SAME_BYTES = ("losses.csv", "report.csv", "hedge_report.csv")


def sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: pathlib.Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def _numbers(cells) -> list:
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:      # labels such as the model name
            pass
    return out


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def command(self, label: str, exit_code, out_dir: pathlib.Path) -> dict:
        """Exit code 0 and every file hashing as its manifest lists.

        Returns the manifest's file digests ({} when the command failed)."""
        if not self.check(exit_code == 0, f"{label}: exit code {exit_code}"):
            return {}
        manifest = out_dir / "manifest.json"
        if not self.check(manifest.is_file(), f"{label}: no manifest.json"):
            return {}
        files = json.loads(manifest.read_text())["files"]
        for name, digest in sorted(files.items()):
            path = out_dir / name
            self.check(path.is_file() and sha256(path) == digest,
                       f"{label}: {name} does not hash as its manifest lists")
        return files

    def loss_curve(self, label: str, path: pathlib.Path) -> float | None:
        """Finite losses whose last-quartile mean is below the first's.

        Returns the final loss for the record."""
        if not self.check(path.is_file(), f"{label}: no {path.name}"):
            return None
        _, rows = _csv_rows(path)
        losses = [float(r[1]) for r in rows]
        if not self.check(len(losses) >= 4 and all(map(math.isfinite, losses)),
                          f"{label}: {path.name} holds a non-finite loss"):
            return None
        q = len(losses) // 4
        first, last = sum(losses[:q]) / q, sum(losses[-q:]) / q
        self.check(last < first, f"{label}: {path.name} does not descend "
                                 f"({first:.4g} -> {last:.4g})")
        return losses[-1]

    def finite_report(self, label: str, path: pathlib.Path) -> list | None:
        """Every number in a report CSV finite; returns the parsed rows."""
        if not self.check(path.is_file(), f"{label}: no {path.name}"):
            return None
        header, rows = _csv_rows(path)
        values = [v for r in rows for v in _numbers(r)]
        if not self.check(bool(rows) and all(map(math.isfinite, values)),
                          f"{label}: {path.name} holds a non-finite value"):
            return None
        return [dict(zip(header, r)) for r in rows]

    def hedge_ratio(self, label: str, path: pathlib.Path) -> float | None:
        """repl/init from hedge_report.csv, below HEDGE_RATIO_BOUND."""
        rows = self.finite_report(label, path)
        if rows is None:
            return None
        ratio = float(rows[0]["repl_loss"]) / float(rows[0]["init_risk"])
        self.check(ratio <= HEDGE_RATIO_BOUND,
                   f"{label}: hedge repl/init {ratio:.3f} above {HEDGE_RATIO_BOUND}")
        return ratio

    def same_bytes(self, label: str, dir_a: pathlib.Path, dir_b: pathlib.Path) -> None:
        """The deterministic artifacts of two runs of one config are identical."""
        for name in SAME_BYTES:
            a, b = dir_a / name, dir_b / name
            if a.is_file() or b.is_file():
                self.check(a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes(),
                           f"{label}: {name} differs from the first run's")
