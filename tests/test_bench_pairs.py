import importlib
import importlib.util
import json
import os
import platform
import ssl
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench_pairs.py"

BENCHMARK = {
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "correct_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
        {"name": "latency_p99_us", "unit": "us", "better": "lower", "bound": 0.01},
    ],
}

# Stands in for each side's authlab.bits: hasher resolves a constructor named after the side.
FAKE_BITS = """\
def {side}_sha256(data=b""):
    raise NotImplementedError


def hasher(hash_id):
    return {side}_sha256, 32
"""

# Stands in for authbench/run.py: prints a result line, except on FAIL_SEED,
# where it prints FAIL_STDOUT instead and exits 1 with a message on stderr. Most metrics
# read 100 + seed at the parent, and the change adds an offset; latency_p99_us
# reads 1 on seeds 1-5 and 9 on 6-10 at the parent, and 0.5 at the change.
FAKE_RUN = """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--seed"] == "{fail_seed}":
    print({fail_stdout!r})
    sys.exit("authbench: gate failed on seed " + args["--seed"])
change = os.path.basename(os.getcwd()) == "change"
seed = int(args["--seed"])
offsets = {{"ops_per_s": 10.0, "latency_p50_us": 100.0, "setup_s": 1.0, "correct_ratio": 0.5}}
values = {{name: 100.0 + seed + change * offset for name, offset in offsets.items()}}
values["latency_p99_us"] = 0.5 if change else 1.0 if seed <= 5 else 9.0
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {{name: {{"value": value, "unit": "-"}} for name, value in values.items()}}}}))
"""


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs(tool, monkeypatch, tmp_path):
    """Runs the tool on fake checkouts whose run prints fail_stdout, not a result, on fail_seed;
    returns its exit code and the JSON it wrote."""

    def run(fail_seed, fail_stdout=""):
        def fake_export(rev, dest):
            (dest / "authbench").mkdir(parents=True)
            (dest / "src" / "authlab").mkdir(parents=True)
            (dest / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
            (dest / "authbench" / "run.py").write_text(FAKE_RUN.format(fail_seed=fail_seed, fail_stdout=fail_stdout))
            (dest / "src" / "authlab" / "__init__.py").write_text("")
            (dest / "src" / "authlab" / "bits.py").write_text(FAKE_BITS.format(side=dest.name))
            return rev

        monkeypatch.setattr(tool, "export", fake_export)
        out = tmp_path / "BENCH.json"
        code = tool.main(["--parent", "p", "--change", "c", "--out", str(out)])
        return code, json.loads(out.read_text())

    return run


def test_summarises_every_pair(bench_pairs, tool, monkeypatch, capsys):
    runs, loads = [], []
    bench = tool.bench

    def counted_bench(*args):
        runs.append(args)
        return bench(*args)

    def loadavg():  # its 1-minute reading is the number of runs made so far, so it shows when it was taken
        loads.append(len(runs))
        return len(runs), 0.5, 0.25

    monkeypatch.setattr(tool, "bench", counted_bench)
    monkeypatch.setattr(tool.os, "getloadavg", loadavg)
    code, doc = bench_pairs(fail_seed=None)
    assert code == 0
    ops = doc["workloads"]["w"]["metrics"]["ops_per_s"]
    assert ops["parent"]["runs"] == [100.0 + seed for seed in range(1, 11)]
    assert ops["change_better_in_pairs"] == "10/10"
    assert doc["per_layer"]["w"]["change"]["metrics"] == {
        "ops_per_s": 121.0, "latency_p50_us": 211.0, "setup_s": 112.0, "correct_ratio": 111.5, "latency_p99_us": 0.5
    }
    # parent runs 101 .. 110: q1 103.25, median 105.5, q3 107.75
    verdicts = {name: m["verdict"] for name, m in doc["workloads"]["w"]["metrics"].items()}
    assert verdicts == {
        "ops_per_s": "gain",  # 10/10 pairs, +10 against an IQR of 4.5
        "latency_p50_us": "regression",  # +100 us, over 25% worse
        "setup_s": "within_bound",  # +1 s, under 1% worse
        "correct_ratio": "unresolved",  # 10/10 pairs but +0.5; IQR/median 4.3% over a 1% bound
        # every change run beats every parent run, by less than the IQR (q1 1, median 5, q3 9)
        "latency_p99_us": "within_bound",
    }
    # which build ran it: the interpreter, its version and the OpenSSL it links
    assert doc["env"]["python"] == platform.python_version()
    assert doc["env"]["implementation"] == platform.python_implementation()
    assert doc["env"]["openssl"] == ssl.OPENSSL_VERSION
    # whether the interpreter writes bytecode, since without it every authlab serve compiles src/ again
    assert doc["env"]["dont_write_bytecode"] == ("PYTHONDONTWRITEBYTECODE" in os.environ)
    # the host's load averages once before the first run and once after the last pair, before the traced runs
    assert loads == [0, 20] and len(runs) == 22
    assert doc["env"]["loadavg"] == {"start": [0, 0.5, 0.25], "end": [20, 0.5, 0.25]}
    # and the sha256 constructor each side's own bits.hasher picks
    assert doc["env"]["sha256_constructor"] == {
        "parent": "authlab.bits.parent_sha256", "change": "authlab.bits.change_sha256"
    }


def test_names_the_constructor_this_tree_resolves(tool, tmp_path):
    from authlab.bits import hasher

    module_name, name = tool.sha256_constructor(REPO).rsplit(".", 1)
    assert getattr(importlib.import_module(module_name), name) is hasher("sha256")[0]
    # a tree whose bits has no hasher, as before there was one
    (tmp_path / "src" / "authlab").mkdir(parents=True)
    (tmp_path / "src" / "authlab" / "__init__.py").write_text("")
    (tmp_path / "src" / "authlab" / "bits.py").write_text("")
    assert tool.sha256_constructor(tmp_path) is None


def test_run_without_result_keeps_the_runs_so_far(bench_pairs, capsys):
    # an empty stdout, a last stdout line that is not JSON, and JSON that is not a result
    for fail_stdout in ("", "authbench: not a result line", '{"x": 1}', "[1]"):
        code, doc = bench_pairs(fail_seed=2, fail_stdout=fail_stdout)  # even: the change runs first and fails
        assert code == 1
        assert doc["env"]["parent_sha"] == "p" and doc["env"]["change_sha"] == "c"
        failed = doc["failed_run"]
        assert failed["side"] == "change" and failed["exit_code"] == 1
        assert "--seed 2" in failed["command"]
        assert failed["stdout_tail"] == fail_stdout + "\n"
        assert "gate failed on seed 2" in failed["stderr_tail"]
        runs = doc["runs"]["w"]
        assert [r["seed"] for r in runs["parent"]] == [1] and [r["seed"] for r in runs["change"]] == [1]
        assert runs["change"][0]["result"]["metrics"]["ops_per_s"]["value"] == 111.0
        assert "printed no result" in capsys.readouterr().err
