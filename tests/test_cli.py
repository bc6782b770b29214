import json

import numpy as np
import pytest

from pilip.cli import cli_main
from pilip.rng import stream
from pilip.serialize import mixed_to_json, operator_to_json, save_json
from pilip.tensors import MultilinearOperator
from pilip.verify import lambda_n, random_mixed


@pytest.fixture
def lambda2_path(tmp_path):
    path = tmp_path / "lambda2.json"
    save_json(operator_to_json(lambda_n(2)), str(path))
    return str(path)


@pytest.fixture
def zero_path(tmp_path):
    path = tmp_path / "zero.json"
    save_json(operator_to_json(MultilinearOperator.from_array(np.zeros((2, 2, 1)))),
              str(path))
    return str(path)


def test_summing_lambda2_reports_unit_constant(lambda2_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(["summing", "--p", "2", lambda2_path, "--json-out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    result = report["result"]
    assert abs(result["detail"]["certificate"]["constant"] - 1.0) <= 0.05
    assert result["certified_lower"] >= 0.999
    assert report["config"]["seed"] == 0


def test_hs_zero(zero_path, capsys):
    assert cli_main(["hs", zero_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["hs_norm"] == 0


def test_hs_sandwich_flag(lambda2_path, capsys):
    assert cli_main(["hs", lambda2_path, "--sandwich"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["sandwich"]["passed"] is True


def test_norm_command(lambda2_path, capsys):
    assert cli_main(["norm", lambda2_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["certified_upper"] == 1


def test_malformed_json_exit_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"shape": [2,, 2]}')
    assert cli_main(["norm", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and ":1:" in err  # path:line:col annotation


def test_schema_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "mismatch.json"
    bad.write_text('{"shape": [2, 2, 1], "data": [1, 2, 3]}')
    assert cli_main(["norm", str(bad)]) == 2


def test_missing_file_exit_2(tmp_path):
    assert cli_main(["norm", str(tmp_path / "nope.json")]) == 2


def test_restrict_command(tmp_path, capsys):
    path = tmp_path / "bilinear.json"
    save_json(
        operator_to_json(
            MultilinearOperator.from_array(np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None])
        ),
        str(path),
    )
    assert cli_main(["restrict", str(path), "--slot", "0", "--vector", "1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["restricted"]["data"] == [1, 2]


def test_restrict_bad_slot_exit_2(lambda2_path):
    assert cli_main(["restrict", lambda2_path, "--slot", "5", "--vector", "1"]) == 2


def test_dnorm_command(tmp_path, capsys):
    z = random_mixed((2, 2), 2, stream(0))
    path = tmp_path / "mixed.json"
    save_json(mixed_to_json(z), str(path))
    assert cli_main(["dnorm", "--p", "2", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (
        report["result"]["certified_lower"]
        <= report["result"]["certified_upper"] + 1e-7
    )


def test_poly_command(lambda2_path, capsys):
    assert cli_main(["poly", "--p", "2", lambda2_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["certified_lower"] <= 1.0 + 1e-9 <= \
        report["result"]["certified_upper"] + 2e-9


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert cli_main([
        "gen", str(out), "--kind", "operator", "--dims", "2,3", "--m", "2",
        "--factor-norms", "2,inf", "--seed", "5",
    ]) == 0
    obj = json.loads(out.read_text())
    assert obj["shape"] == [2, 3, 2]
    assert obj["factor_norms"] == [2, "inf"]
    assert cli_main(["norm", str(out)]) == 0


def test_verify_exit_zero_and_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["verify", "--seed", "3", "--trials", "2", "--json-out", str(a)]) == 0
    assert cli_main(["verify", "--seed", "3", "--trials", "2", "--json-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _mixed_path(tmp_path):
    path = str(tmp_path / "mixed.json")
    save_json(mixed_to_json(random_mixed((2, 2), 2, stream(0))), path)
    return path


def test_bad_tolerance_rejected(tmp_path, capsys):
    assert cli_main(["dnorm", _mixed_path(tmp_path), "--tol", "7"]) == 2
    assert capsys.readouterr().err.startswith("error: tolerance must lie in (0, 1)")


def test_tolerance_is_echoed_by_dnorm_and_null_elsewhere(lambda2_path, tmp_path, capsys):
    assert cli_main(["dnorm", _mixed_path(tmp_path), "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-6
    assert cli_main(["norm", lambda2_path]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] is None


# every subcommand takes only the flags it reads: --ball only summing, --tol only dnorm,
# and neither --p nor a budget flag restrict or verify (nor --p norm)
REMOVED_FLAGS = ([f"{c} --ball op" for c in ("norm", "hs", "dnorm", "restrict", "poly", "verify")]
                 + [f"{c} --tol 0.5" for c in ("norm", "summing", "hs", "restrict", "poly",
                                               "verify")]
                 + [f"{c} --p 2" for c in ("norm", "restrict", "verify")]
                 + [f"{c} {flag}" for c in ("restrict", "verify")
                    for flag in ("--budget-restarts 3", "--budget-pairs 3", "--budget-dict 3",
                                 "--budget-rounds 2")])


def test_budget_is_echoed_where_it_is_read_and_null_elsewhere(lambda2_path, tmp_path, capsys):
    assert cli_main(["norm", lambda2_path, "--budget-restarts", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"]["restarts"] == 3
    path = str(tmp_path / "bilinear.json")
    save_json(operator_to_json(MultilinearOperator.from_array(np.ones((2, 2, 1)))), path)
    assert cli_main(["restrict", path, "--slot", "0", "--vector", "1,0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] is None
    assert cli_main(["verify", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] is None


@pytest.mark.parametrize("argv", REMOVED_FLAGS)
def test_removed_flag_exits_2(argv, lambda2_path, tmp_path, capsys):
    command, *flags = argv.split()
    args = {"verify": [], "dnorm": [_mixed_path(tmp_path)],
            "restrict": [lambda2_path, "--slot", "0", "--vector", "1,0"]}.get(command,
                                                                              [lambda2_path])
    with pytest.raises(SystemExit) as exc:
        cli_main([command] + args + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "summing --p 0.5",
    "summing --p inf",
    "summing --p nan",
    "summing --budget-rounds 0",
    "poly --p inf",
    "hs --sandwich --p nan",
    "dnorm --p 1",
    "dnorm --p nan",
    "dnorm --tol 2",
])
def test_invalid_values_exit_2(argv, lambda2_path, tmp_path, capsys):
    command, *flags = argv.split()
    path = lambda2_path
    if command == "dnorm":
        path = _mixed_path(tmp_path)
    assert cli_main([command, path] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    "--factor-norms 3,2",
    "--codomain-norm 5",
    "--dims 2,x",
    "--m 0",
    "--dims 2,-1",
    "--factor-norms 2",
    "--seed -1",
])
def test_gen_invalid_values_exit_2(flags, tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert cli_main(["gen", str(out)] + flags.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["norm", "summing", "hs", "dnorm", "restrict", "poly",
                                     "verify", "gen"])
def test_negative_seed_exit_2(command, lambda2_path, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = {"verify": ["verify", "--json-out", str(out)], "gen": ["gen", str(out)],
            "restrict": ["restrict", lambda2_path, "--slot", "0", "--vector", "1,0",
                         "--json-out", str(out)]}.get(command, [command, lambda2_path,
                                                                "--json-out", str(out)])
    assert cli_main(argv + ["--seed", "-2"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -2\n"
    assert not out.exists()
