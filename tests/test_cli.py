"""Command-line entry point, exercised in process through main(argv)."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import pytest

import cntp
from cntp import DecodeConfig, ModelServer, config_to_dict
from cntp.harness import resolve_model
from cntp.harness.cli import main


def _only_record(out_dir) -> dict:
    paths = glob.glob(str(out_dir / "*" / "records.jsonl"))
    assert len(paths) == 1
    with open(paths[0], encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert len(lines) == 1
    return lines[0]


def test_decode_prints_output_and_ledger(tmp_path, capsys):
    rc = main(["decode", "--model", "bundled:kgram", "--prompt", "the ca",
               "--strategy", "greedy", "--seed", "123", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passes=" in out and "record:" in out
    record = _only_record(tmp_path)
    assert record["strategy"] == "greedy"
    assert record["config"]["seed"] == 123
    assert record["config"]["temperature"] == 0.0  # greedy preset


def test_decode_expands_beam_width_flag(tmp_path, capsys):
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q00",
               "--strategy", "beam:2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert _only_record(tmp_path)["strategy"] == "beam:2"


def test_temperature_precedence_flag_beats_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        DecodeConfig(temperature=0.9, top_p=1.0))) + "\n", encoding="utf-8")

    flag_dir = tmp_path / "flag"
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q01",
               "--strategy", "stochastic", "--config", str(cfg_path),
               "--temperature", "0.3", "--out", str(flag_dir)])
    assert rc == 0
    assert _only_record(flag_dir)["config"]["temperature"] == 0.3

    file_dir = tmp_path / "file"
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q01",
               "--strategy", "stochastic", "--config", str(cfg_path),
               "--out", str(file_dir)])
    assert rc == 0
    # a config file pins temperature; the stochastic preset must not override it
    assert _only_record(file_dir)["config"]["temperature"] == 0.9

    preset_dir = tmp_path / "preset"
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q01",
               "--strategy", "stochastic", "--out", str(preset_dir)])
    assert rc == 0
    assert _only_record(preset_dir)["config"]["temperature"] == 0.6
    capsys.readouterr()


def test_suite_reports_aggregates(tmp_path, capsys):
    """The bundled task families pair with bundled config files; greedy on
    the kgram suite under its own config is exact by construction."""
    rc = main(["suite", "--model", "bundled:kgram", "--tasks", "bundled:kgram",
               "--config", "bundled:kgram", "--strategy", "greedy",
               "--seeds", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "strategy=greedy tasks=20 seeds=1" in out
    assert "accuracy=1.0000" in out
    assert "run dir:" in out


def test_ablate_renders_rows_and_logs(tmp_path, capsys):
    rows_path = tmp_path / "rows.jsonl"
    rc = main(["ablate", "--model", "bundled:suite", "--tasks", "bundled:suite",
               "--config", "bundled:suite", "--axis", "n_max_sweep",
               "--values", "1,5", "--seeds", "0", "--out", str(rows_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "axis: n_max_sweep" in out
    assert "accuracy" in out
    with open(rows_path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [r["value"] for r in rows] == [1, 5]


def test_theorem_reports_all_bundled_fixtures(capsys):
    rc = main(["theorem"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "12 fixtures: dominance ok on 12" in out
    assert "cost bound ok on 10 of 10 single-token-branch fixtures" in out
    assert "case_k" in out and "cost_bound=n/a" in out


def test_theorem_accepts_a_fixture_path(capsys):
    rc = main(["theorem", "--fixture", "bundled:theorem1_case"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dominance=ok" in out and "cost_bound=ok" in out


def test_train_kgram_then_decode(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat. the dog sat on the log.\n",
                      encoding="utf-8")
    model_path = tmp_path / "toy.kgram"
    rc = main(["train-kgram", "--corpus", str(corpus), "--k", "2",
               "--out", str(model_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trained k=2" in out
    rc = main(["decode", "--model", f"kgram:{model_path}", "--prompt", "the",
               "--strategy", "greedy", "--out", ""])
    capsys.readouterr()
    assert rc == 0


def test_serve_stub_runs_for_duration(capsys):
    rc = main(["serve-stub", "--model", "bundled:kgram", "--duration", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "serving" in out


def test_remote_decode_matches_local(capsys):
    server = ModelServer(resolve_model("bundled:kgram"))
    try:
        args = ["--prompt", "the ca", "--strategy", "greedy", "--out", ""]
        rc = main(["decode", "--model", f"remote:{server.address}", *args])
        remote_out = capsys.readouterr().out
        assert rc == 0
        rc = main(["decode", "--model", "bundled:kgram", *args])
        local_out = capsys.readouterr().out
        assert rc == 0
        assert remote_out.splitlines()[:2] == local_out.splitlines()[:2]
    finally:
        server.close()


def test_replay_round_trip_and_tamper_detection(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = main(["decode", "--model", "bundled:kgram", "--prompt", "the ca",
               "--strategy", "stochastic", "--seed", "0", "--out", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    rec_path = glob.glob(str(out_dir / "*" / "records.jsonl"))[0]

    assert main(["replay", "--record", rec_path]) == 0
    assert "replay ok" in capsys.readouterr().out
    assert main(["replay", "--record", rec_path, "--model", "bundled:kgram"]) == 0
    capsys.readouterr()

    with open(rec_path, encoding="utf-8") as fh:
        data = json.loads(fh.read())
    data["config"]["seed"] = 1
    with open(rec_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data) + "\n")
    assert main(["replay", "--record", rec_path]) == 4
    assert "replay mismatch" in capsys.readouterr().err


def test_replay_line_selection_errors(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    main(["decode", "--model", "bundled:kgram", "--prompt", "the ca",
          "--strategy", "greedy", "--out", str(out_dir)])
    capsys.readouterr()
    rec_path = glob.glob(str(out_dir / "*" / "records.jsonl"))[0]
    assert main(["replay", "--record", rec_path, "--line", "7"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["replay", "--record", str(tmp_path / "absent.jsonl")]) == 2
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["suite", "--model", "bundled:kgram", "--tasks", "bundled:kgram",
      "--strategy", "greedy", "--seeds", "a,b"], 1),
    (["decode", "--model", "missing.model", "--prompt", "x", "--out", ""], 2),
    (["decode", "--model", "remote:127.0.0.1:9", "--prompt", "x", "--out", ""], 3),
    (["decode", "--model", "bundled:kgram", "--prompt", "x",
      "--strategy", "mystery", "--out", ""], 1),
    (["decode", "--prompt", "x"], 1),
    (["mystery-command"], 1),
    (["decode", "--model", "bundled:kgram", "--prompt", "x",
      "--strategy", "beam:0", "--out", ""], 1),
    (["suite", "--model", "bundled:kgram", "--tasks", "bundled:kgram",
      "--strategy", "beam", "--paths", "3", "--out", ""], 1),
], ids=["bad-seeds", "missing-model-file", "unreachable-remote",
        "unknown-strategy", "missing-required-flag", "unknown-command",
        "zero-beam-width", "width-flag-instead-of-strategy-string"])
def test_error_exit_codes(argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().err


def test_usage_error_on_unencodable_prompt(capsys):
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "zzz",
               "--strategy", "greedy", "--out", ""])
    assert rc == 2  # the prompt cannot be written in the model's vocabulary
    assert "not encodable" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    """python -m cntp.harness.cli must not find the module already imported
    by its package, which makes runpy warn on every call."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cntp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cntp.harness.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: cntp" in result.stdout
