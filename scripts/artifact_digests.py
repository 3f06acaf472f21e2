"""Print the sha256 of every artifact a short run of the CLI writes.

For each generator kind: `train-gen`, `eval-gen` (1000 paths) and a call
`hedge` on its checkpoint, at the README reference options with short
iteration counts; then GBM-on-the-fly `hedge` runs for the proxy and spread
cases.  Every command prints one `exit` line and every file it wrote except
`manifest.json` (which holds a timestamp) one digest line, so two source
trees give the same output exactly when their artifacts and exit codes agree:

    python3 scripts/artifact_digests.py --seed 0 > change.txt
    python3 scripts/artifact_digests.py --seed 0 --src ../parent/src > parent.txt
    diff parent.txt change.txt

Run from the repository root; `--src` defaults to this checkout's `src`.
About a minute per seed on two cores.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

TRAIN = {
    "GBM": {},
    "CEGEN": {"iterations": 20, "batch_size": 256},
    "TSGAN": {"iterations": 200, "batch_size": 64, "lr": 3e-3, "critic_lr": 1e-5,
              "pretrain_iterations": 200, "latent_dim": 4, "hidden": 16},
    "COTGAN": {"iterations": 200, "batch_size": 64, "critic_lr": 1e-6},
    "SIGGAN": {"iterations": 30, "batch_size": 128, "lr": 3e-3},
}
HEDGE_TRAIN = {"iterations": 30, "batch_size": 256, "lr": 1e-2}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from commodgen import cli

    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)

        def run(command: str, name: str, cfg: dict) -> None:
            path = work / f"{name}-{command}.json"
            path.write_text(json.dumps({"seed": args.seed, **cfg}))
            out = work / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(path), "--out", str(out)])
            print(f"exit {code}  {name} {command}")
            for f in cli.OUTPUTS[command]:
                if (out / f).exists():
                    digest = hashlib.sha256((out / f).read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{f}")

        for kind, train in TRAIN.items():
            name = kind.lower()
            run("train-gen", name, {"generator": {"kind": kind, "train": train}})
            loaded = {"generator": {"checkpoint": str(work / name / "generator.json")}}
            run("eval-gen", name, loaded)
            run("hedge", name, {**loaded, "hedge": {"train": HEDGE_TRAIN}})
        for case in ("proxy", "spread"):
            run("hedge", f"gbm-{case}", {"generator": {"kind": "GBM"},
                                         "hedge": {"case": case, "train": HEDGE_TRAIN}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
