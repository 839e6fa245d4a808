"""Alternating parent/change pairs of authbench runs, summarised as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_N.json

Exports both revisions with `git archive` into a temporary directory and runs
`authbench/run.py --workload W --seed S --seconds N` in each, for every
workload and seeds 1 .. 10, the parent first on odd seeds. Then one
`--trace 1` run per side and workload on seed 11. The workloads, the run
length N and the end-to-end metrics with their bounds come from the parent's
BENCHMARK.json. `env` names the build: the interpreter, the OpenSSL it
links, and for each side the sha256 constructor that side's `bits.hasher`
resolves (null where its `authlab.bits` cannot be imported). It also holds
the host's 1, 5 and 15 minute load averages at the start and at the end of
the pairs, since other load on the host moves every timing, and whether
PYTHONDONTWRITEBYTECODE is set, since then every `authlab serve` compiles
src/ again, which moves the remote workloads' start-up peak RSS. For each metric
and side the file holds every run, the median and the quartiles; for each
metric, the change's median relative to the parent's, the parent's
IQR/median, the number of pairs in which the change reads better (ties
count for neither side), and a verdict:
`gain` when the change wins at least 9 of 10 pairs and its median is better
by more than the parent's q3 - q1; else `regression` when its median is
worse by more than the metric's bound; else `unresolved` when the parent's
IQR/median exceeds the bound and not every change run beats every parent
run; else `within_bound`. Stdlib only; runs one benchmark process at a time.

A run that prints no result line (its last stdout line is missing, not
JSON, or not an object with `metrics`, `failed` and `attempted`) stops the
tool: it writes the runs made so far, and that run's command, exit code,
stdout tail and stderr tail, to the output file and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import ssl
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"
SEEDS = range(1, 11)  # ten pairs
TRACE_SEED = 11
TAIL = 4000  # characters of a failed run's stdout and of its stderr kept in the output file


# Prints the module and name of the sha256 constructor that bits.hasher resolves in the checkout it runs in.
HASHER_PROBE = (
    "import sys; sys.path.insert(0, 'src'); from authlab.bits import hasher; new = hasher('sha256')[0]; "
    "print(f'{new.__module__}.{new.__qualname__}')"
)


class NoResult(Exception):
    """A benchmark run that printed no result line; args[0] describes it."""


def export(rev: str, dest: Path) -> str:
    """Write the committed files of rev to dest; return its full SHA."""
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def sha256_constructor(checkout: Path) -> str | None:
    """The sha256 constructor that checkout's bits.hasher resolves, as module.name; None if the probe fails."""
    done = subprocess.run([sys.executable, "-c", HASHER_PROBE], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[int, dict]:
    """One authbench run; its exit code and the result on its last stdout line."""
    cmd = [sys.executable, "authbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):  # no stdout, or a last line that is not JSON
        result = None
    # main reads these keys of every result
    if not (isinstance(result, dict) and {"metrics", "failed", "attempted"} <= result.keys()):
        raise NoResult({"command": " ".join(cmd), "side": checkout.name, "exit_code": done.returncode,
                        "stdout_tail": done.stdout[-TAIL:], "stderr_tail": done.stderr[-TAIL:]})
    return done.returncode, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def verdict(sign: int, bound: float, p: dict, c: dict, wins: int) -> str:
    """One metric's reading, by the rule in the module docstring, from the
    summaries p and c; sign is 1 where higher is better, -1 where lower is."""
    gained = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    if 10 * wins >= 9 * len(p["runs"]) and gained > spread:
        return "gain"
    if -gained > bound * abs(p["median"]):
        return "regression"
    if spread > bound * abs(p["median"]) and not all(
        sign * (after - before) > 0 for before in p["runs"] for after in c["runs"]
    ):
        return "unresolved"
    return "within_bound"


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_vs_parent": c["median"] / p["median"] - 1 if p["median"] else None,
        "parent_iqr_over_median": (p["q3"] - p["q1"]) / p["median"] if p["median"] else None,
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "verdict": verdict(sign, spec["bound"], p, c, wins),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        shas = {side: export(getattr(args, side), checkouts[side]) for side in SIDES}
        benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in benchmark["workloads"]]
        seconds = benchmark["run_seconds"]
        env = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "openssl": ssl.OPENSSL_VERSION,
            "dont_write_bytecode": "PYTHONDONTWRITEBYTECODE" in os.environ,
            "nproc": os.cpu_count(),
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "host": f"{platform.system()} {platform.machine()}",
            "sha256_constructor": {side: sha256_constructor(checkouts[side]) for side in SIDES},
            "loadavg": {"start": os.getloadavg()},
        }

        runs = {w: {side: [] for side in SIDES} for w in workloads}
        per_layer = {w: {} for w in workloads}
        try:
            for seed in SEEDS:
                for w in workloads:
                    for side in SIDES if seed % 2 else SIDES[::-1]:
                        runs[w][side].append(bench(checkouts[side], w, seed, seconds, 0))
                        code, result = runs[w][side][-1]
                        ops = result["metrics"].get("ops_per_s", {}).get("value")
                        print(f"{w} seed {seed} {side}: exit {code}, ops_per_s {ops}", file=sys.stderr, flush=True)
            env["loadavg"]["end"] = os.getloadavg()
            for w in workloads:
                for side in SIDES:
                    code, result = bench(checkouts[side], w, TRACE_SEED, seconds, 1)
                    per_layer[w][side] = {
                        "git_sha": shas[side], "workload": w, "seed": TRACE_SEED, "exit_code": code,
                        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    }
        except NoResult as exc:
            partial = {
                "what": "Incomplete: a run printed no result line, so nothing is summarised; the runs before it follow.",
                "env": env,
                "failed_run": exc.args[0],
                "runs": {
                    w: {side: [{"seed": seed, "exit_code": code, "result": result}
                               for seed, (code, result) in zip(SEEDS, runs[w][side])] for side in SIDES}
                    for w in workloads
                },
                "per_layer": per_layer,
            }
            args.out.write_text(json.dumps(partial, indent=1) + "\n")
            print(f"bench_pairs: {exc.args[0]['command']} ({exc.args[0]['side']}) printed no result; "
                  f"the runs so far are in {args.out}", file=sys.stderr)
            return 1

    def column(w: str, side: str, key) -> list:
        return [key(code, result) for code, result in runs[w][side]]

    doc = {
        "what": (
            f"End-to-end metrics of authbench/run.py at the parent commit and at the change, from alternating "
            f"pairs of {seconds} s runs per workload (seeds {SEEDS[0]}-{SEEDS[-1]}, the parent first on odd "
            f"seeds), plus one --trace 1 run per side and workload (seed {TRACE_SEED}) for per-layer times."
        ),
        "commands": [
            f"python3 tools/bench_pairs.py --parent {args.parent} --change {args.change} --out {args.out.name}",
            f"python3 authbench/run.py --workload W --seed N --seconds {seconds} [--trace 1]"
            "   # each run it makes, in a git archive of each side",
        ],
        "quartiles": QUARTILES,
        "notes": [],
        "env": env,
        "workloads": {
            w: {
                "pairs": len(SEEDS),
                "seeds": list(SEEDS),
                "exit_codes": {side: column(w, side, lambda code, r: code) for side in SIDES},
                "failed": {side: column(w, side, lambda code, r: r["failed"]) for side in SIDES},
                "attempted": {side: column(w, side, lambda code, r: r["attempted"]) for side in SIDES},
                "metrics": {
                    spec["name"]: compare(
                        spec, *(column(w, side, lambda code, r: r["metrics"][spec["name"]]["value"]) for side in SIDES)
                    )
                    for spec in benchmark["end_to_end"]
                },
            }
            for w in workloads
        },
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
