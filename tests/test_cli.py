import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catgraph import cli, connectivity
from catgraph.graphs import read_graph_file
from catgraph.metrics import RunMetrics

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, tmp_path=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "catgraph", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture
def path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text("# three-vertex path\n3 2\n0 1\n1 2\n")
    return str(p)


@pytest.fixture
def cycle_graph(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    return str(p)


@pytest.fixture
def figure_graph(tmp_path):
    p = tmp_path / "figure.txt"
    edges = [
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5),
        (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7),
    ]
    p.write_text("8 12\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(p)


def test_connect_det_verify(path_graph):
    proc = run_cli(["connect", path_graph, "0", "2", "--algo", "det", "--verify", "--json"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["verdict"] == "path"
    assert out["tape_restored"] is True
    assert out["schema"] == 1


def test_connect_rand_soundness(path_graph):
    for seed in ("7", "8", "9"):
        proc = run_cli(["connect", path_graph, "2", "0", "--algo", "rand", "--rng-seed", seed])
        assert proc.returncode == 0
        assert "no-path" in proc.stdout


def test_connect_revertible(path_graph):
    proc = run_cli(["connect", path_graph, "0", "2", "--algo", "revertible",
                    "--rng-seed", "1", "--verify", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "path"


def test_replay_byte_identical(path_graph):
    args = ["connect", path_graph, "0", "2", "--algo", "rand",
            "--rng-seed", "11", "--tape-seed", "3", "--stable-json"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["wall_time_ms"] == 0.0


def test_walk_dag_figure(figure_graph):
    proc = run_cli(["walk", figure_graph, "0", "6", "--dag", "--eps", "0.1",
                    "--verify", "--json", "--tape-seed", "5"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert 0.4 <= out["estimate"] <= 0.6


def test_walk_requires_steps_without_dag(path_graph):
    proc = run_cli(["walk", path_graph, "0", "2"])
    assert proc.returncode == 2


def test_walk_dag_rejects_cycle(cycle_graph):
    proc = run_cli(["walk", cycle_graph, "0", "1", "--dag"])
    assert proc.returncode == 2
    assert "acyclic" in proc.stderr


def test_walk_zero_steps_self(cycle_graph):
    proc = run_cli(["walk", cycle_graph, "1", "1", "--steps", "0", "--json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["estimate"] == 1.0


def test_walk_general_verify(cycle_graph):
    proc = run_cli(["walk", cycle_graph, "0", "1", "--steps", "1",
                    "--eps", "0.1", "--verify"])
    assert proc.returncode == 0, proc.stderr


def test_stationary_four_cycle(cycle_graph):
    proc = run_cli(["stationary", cycle_graph, "0", "--mix-time", "4",
                    "--delta", "0.05", "--json"])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert 0.2 <= out["estimate"] <= 0.3
    assert out["t_prime"] == 480  # ceil(T*(m+2)/delta)
    assert out["in_band_irreversible"] is True


def test_stationary_rejects_sink(path_graph):
    proc = run_cli(["stationary", path_graph, "0", "--mix-time", "2"])
    assert proc.returncode == 2


def test_missing_file_is_input_error(tmp_path):
    proc = run_cli(["connect", str(tmp_path / "nope.txt"), "0", "1"])
    assert proc.returncode == 2


def test_bad_vertex_is_input_error(path_graph):
    proc = run_cli(["connect", path_graph, "0", "9"])
    assert proc.returncode == 2


def test_malformed_graph_is_input_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 5\n")
    proc = run_cli(["connect", str(p), "0", "1"])
    assert proc.returncode == 2


def test_trials_aggregate(path_graph):
    proc = run_cli(["connect", path_graph, "0", "2", "--algo", "rand",
                    "--trials", "3", "--json", "--rng-seed", "2"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 4
    agg = json.loads(lines[-1])
    assert agg["command"] == "connect-aggregate"
    assert agg["verdicts"] == {"path": 3}


@pytest.mark.parametrize("argv", [
    ["connect", "{g}", "0", "2", "--trials", "0"],
    ["walk", "{g}", "0", "2", "--dag", "--verify", "--trials", "0"],
    ["walk", "{g}", "0", "2", "--dag", "--trials", "-1"],
], ids=["connect", "walk-verify", "walk-negative"])
def test_trials_below_one_is_input_error(capsys, path_graph, argv):
    code = cli.main([a.format(g=path_graph) for a in argv])
    assert code == cli.EXIT_INPUT_ERROR
    out = capsys.readouterr()
    assert out.out == "" and "--trials" in out.err


@pytest.mark.parametrize("argv, name", [
    (["connect", "{g}", "0", "2", "--algo", "rand", "--kappa", "-3"], "kappa"),
    (["connect", "{g}", "0", "2", "--algo", "rand", "--kappa", "0"], "kappa"),
    (["connect", "{g}", "0", "2", "--algo", "revertible", "--kappa", "inf"], "kappa"),
    (["connect", "{g}", "0", "2", "--algo", "revertible", "--kappa", "nan"], "kappa"),
    (["stationary", "{g}", "0", "--mix-time", "-5"], "mixing time"),
    (["walk", "{g}", "0", "2", "--steps", "2", "--eps", "nan"], "eps"),
    (["walk", "{g}", "0", "2", "--steps", "2", "--eps", "inf"], "eps"),
    (["stationary", "{g}", "0", "--mix-time", "4", "--delta", "nan"], "delta"),
    (["stationary", "{g}", "0", "--mix-time", "4", "--delta", "inf"], "delta"),
], ids=["kappa-negative", "kappa-zero", "kappa-inf", "kappa-nan", "mix-time-negative",
        "eps-nan", "eps-inf", "delta-nan", "delta-inf"])
def test_out_of_range_parameter_is_input_error(capsys, cycle_graph, argv, name):
    code = cli.main([a.format(g=cycle_graph) for a in argv])
    assert code == cli.EXIT_INPUT_ERROR
    out = capsys.readouterr()
    assert out.out == "" and name in out.err


def test_trials_parallel(path_graph):
    proc = run_cli(["connect", path_graph, "0", "2", "--algo", "rand",
                    "--trials", "4", "--parallel", "--json", "--rng-seed", "2"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-1])["trials"] == 4


@pytest.mark.parametrize("argv", [
    ["walk", "{g}", "0", "2", "--dag", "--trials", "2", "--parallel"],
    ["stationary", "{g}", "0", "--mix-time", "2", "--trials", "2", "--parallel"],
], ids=["walk", "stationary"])
def test_parallel_is_a_connect_option_only(capsys, path_graph, argv):
    # the walk commands run their trials in-process, so they reject the flag
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(g=path_graph) for a in argv])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_env_seed_fallback(path_graph):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["CATGRAPH_SEED"] = "42"
    a = subprocess.run(
        [sys.executable, "-m", "catgraph", "connect", path_graph, "0", "2",
         "--algo", "rand", "--stable-json"],
        capture_output=True, text=True, env=env,
    )
    b = run_cli(["connect", path_graph, "0", "2", "--algo", "rand",
                 "--rng-seed", "42", "--stable-json"])
    assert a.stdout == b.stdout


def test_malformed_env_seed_is_input_error(capsys, monkeypatch, path_graph):
    monkeypatch.setenv("CATGRAPH_SEED", "abc")
    code = cli.main(["connect", path_graph, "0", "2", "--algo", "rand"])
    assert code == cli.EXIT_INPUT_ERROR
    out = capsys.readouterr()
    assert out.out == "" and "CATGRAPH_SEED" in out.err


@pytest.mark.parametrize("algo", ["det", "rand", "revertible"])
def test_one_vertex_graph_is_a_path(capsys, tmp_path, algo):
    p = tmp_path / "one.txt"
    p.write_text("1 0\n")
    code = cli.main(["connect", str(p), "0", "0", "--algo", algo, "--verify"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("verdict=path")


@pytest.mark.parametrize("argv", [
    ["connect", "{p}", "0", "2", "--algo", "rand"],
    ["walk", "{p}", "0", "2", "--steps", "2"],
    ["stationary", "{c}", "0", "--mix-time", "2"],
], ids=["connect", "walk", "stationary"])
def test_every_command_aggregates_its_trials(capsys, path_graph, cycle_graph, argv):
    argv = [a.format(p=path_graph, c=cycle_graph) for a in argv]
    assert cli.main([*argv, "--trials", "2", "--stable-json"]) == cli.EXIT_OK
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3
    assert [line["command"] for line in lines] == [argv[0]] * 2 + [f"{argv[0]}-aggregate"]
    assert lines[-1]["trials"] == 2


@pytest.mark.parametrize("argv", [
    ["connect", "{g}", "0", "2", "--algo", "rand"],
    ["walk", "{g}", "0", "2", "--steps", "2", "--verify"],
], ids=["connect", "walk"])
def test_graph_is_read_once_per_invocation(monkeypatch, capsys, path_graph, argv):
    calls = []

    def counting(path):
        calls.append(path)
        return read_graph_file(path)

    monkeypatch.setattr(cli, "read_graph_file", counting)
    assert cli.main([a.format(g=path_graph) for a in argv] + ["--trials", "3"]) == cli.EXIT_OK
    assert calls == [path_graph]


def test_abort_exit_code(monkeypatch, path_graph):
    aborted = RunMetrics(verdict="abort", tape_restored=True, aborted=True)

    def fake(*args, **kwargs):
        return connectivity.ConnectivityAnswer("abort", aborted)

    monkeypatch.setattr(cli.connectivity, "connect_rand", fake)
    code = cli.main(["connect", path_graph, "0", "2", "--algo", "rand"])
    assert code == cli.EXIT_ABORT


def test_verify_mismatch_exit_code(monkeypatch, path_graph):
    wrong = RunMetrics(verdict="no-path", tape_restored=True)

    def fake(*args, **kwargs):
        return connectivity.ConnectivityAnswer("no-path", wrong)

    monkeypatch.setattr(cli.connectivity, "connect_det", fake)
    code = cli.main(["connect", path_graph, "0", "2", "--algo", "det", "--verify"])
    assert code == cli.EXIT_VERIFY_MISMATCH


def test_metrics_json_field_set(path_graph):
    proc = run_cli(["connect", path_graph, "0", "2", "--json"])
    out = json.loads(proc.stdout)
    for key in ("schema", "verdict", "estimate", "elapsed_steps", "wall_time_ms",
                "workspace_peak_bits", "catalytic_bits", "tape_restored",
                "aborted", "normalizations", "command"):
        assert key in out
