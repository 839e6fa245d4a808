import importlib.util
import json
import platform
import ssl
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

BENCHMARK = {
    "run_seconds": 1,
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
}

# Stands in for authbench/run.py: prints a result line, except on FAIL_SEED,
# where it exits 1 with a message on stderr and nothing on stdout.
FAKE_RUN = """\
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--seed"] == "{fail_seed}":
    sys.exit("authbench: gate failed on seed " + args["--seed"])
ops = {{"parent": 100.0, "change": 110.0}}[os.path.basename(os.getcwd())] + int(args["--seed"])
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {{"ops_per_s": {{"value": ops, "unit": "1/s"}}}}}}))
"""


@pytest.fixture
def bench_pairs(monkeypatch, tmp_path):
    """Runs the tool on fake checkouts whose run fails on fail_seed; returns its exit code and the JSON it wrote."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(fail_seed):
        def fake_export(rev, dest):
            (dest / "authbench").mkdir(parents=True)
            (dest / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
            (dest / "authbench" / "run.py").write_text(FAKE_RUN.format(fail_seed=fail_seed))
            return rev

        monkeypatch.setattr(module, "export", fake_export)
        out = tmp_path / "BENCH.json"
        code = module.main(["--parent", "p", "--change", "c", "--out", str(out)])
        return code, json.loads(out.read_text())

    return run


def test_summarises_every_pair(bench_pairs, capsys):
    code, doc = bench_pairs(fail_seed=None)
    assert code == 0
    ops = doc["workloads"]["w"]["metrics"]["ops_per_s"]
    assert ops["parent"]["runs"] == [100.0 + seed for seed in range(1, 11)]
    assert ops["change_better_in_pairs"] == "10/10"
    assert doc["per_layer"]["w"]["change"]["metrics"] == {"ops_per_s": 121.0}
    # which build ran it: the interpreter, its version and the OpenSSL it links
    assert doc["env"]["python"] == platform.python_version()
    assert doc["env"]["implementation"] == platform.python_implementation()
    assert doc["env"]["openssl"] == ssl.OPENSSL_VERSION


def test_run_without_result_keeps_the_runs_so_far(bench_pairs, capsys):
    code, doc = bench_pairs(fail_seed=2)  # even, so the change runs first and fails before the parent's run
    assert code == 1
    assert doc["env"]["parent_sha"] == "p" and doc["env"]["change_sha"] == "c"
    failed = doc["failed_run"]
    assert failed["side"] == "change" and failed["exit_code"] == 1
    assert "--seed 2" in failed["command"]
    assert "gate failed on seed 2" in failed["stderr_tail"]
    runs = doc["runs"]["w"]
    assert [r["seed"] for r in runs["parent"]] == [1] and [r["seed"] for r in runs["change"]] == [1]
    assert runs["change"][0]["result"]["metrics"]["ops_per_s"]["value"] == 111.0
    assert "printed no result" in capsys.readouterr().err
