"""Command-line entry point, exercised in process through main(argv)."""

from __future__ import annotations

import glob
import json
import os
import socket
import subprocess
import sys
import time

import pytest

import cntp
from cntp import DecodeConfig, ModelServer, config_to_dict
from cntp.harness import (AblationSpec, build_fixture_suite, bundled_path, load_tasks,
                           resolve_model, run_ablation, run_one, run_suite)
from cntp.harness import runner
from cntp.harness.cli import main
from cntp.harness.runner import WIDTH_CAP, parse_strategy


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


def test_serve_stub_sleeps_a_long_duration_in_bounded_steps(monkeypatch, capsys):
    """A single sleep of 1e12 s overflows the platform's time_t."""
    naps = []

    def nap(seconds):
        naps.append(seconds)
        if len(naps) == 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(time, "sleep", nap)
    assert main(["serve-stub", "--model", "bundled:kgram", "--duration", "1e12"]) == 0
    assert "serving" in capsys.readouterr().out
    assert naps == [3600, 3600, 3600]


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
    assert _only_record(out_dir)["model_spec"] == "bundled:kgram"  # kept as given

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


def test_suite_records_keep_the_bundled_spec_and_replay(tmp_path, capsys):
    rc = main(["suite", "--model", "bundled:suite", "--tasks", "bundled:suite",
               "--config", "bundled:suite", "--strategy", "cntp", "--seeds", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    rec_path = glob.glob(str(tmp_path / "*" / "records.jsonl"))[0]
    with open(rec_path, encoding="utf-8") as fh:
        specs = {json.loads(line)["model_spec"] for line in fh}
    assert specs == {"bundled:suite"}
    assert main(["replay", "--record", rec_path, "--line", "50"]) == 0
    capsys.readouterr()


def test_replay_accepts_an_expanded_bundled_spec(tmp_path, capsys):
    """Records written before bundled specs were kept as given carry the
    expanded kgram:<path> spec, and still replay."""
    out_dir = tmp_path / "runs"
    assert main(["decode", "--model", "bundled:kgram", "--prompt", "the ca",
                 "--strategy", "cntp", "--seed", "3", "--out", str(out_dir)]) == 0
    rec_path = glob.glob(str(out_dir / "*" / "records.jsonl"))[0]
    data = _only_record(out_dir)
    data["model_spec"] = "kgram:" + bundled_path("kgram.kgram")
    with open(rec_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data) + "\n")
    assert main(["replay", "--record", rec_path]) == 0
    assert "replay ok" in capsys.readouterr().out


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
    (["decode", "--model", "bundled:suite", "--prompt", "Q00", "--config", "missing.json",
      "--out", ""], 2),
    (["decode", "--model", "remote:127.0.0.1:9", "--prompt", "x", "--out", ""], 3),
    (["decode", "--model", "bundled:kgram", "--prompt", "x",
      "--strategy", "mystery", "--out", ""], 1),
    (["decode", "--prompt", "x"], 1),
    (["mystery-command"], 1),
    (["decode", "--model", "bundled:kgram", "--prompt", "x",
      "--strategy", "beam:0", "--out", ""], 1),
    (["suite", "--model", "bundled:kgram", "--tasks", "bundled:kgram",
      "--strategy", "beam", "--paths", "3", "--out", ""], 1),
], ids=["bad-seeds", "missing-model-file", "missing-config-file", "unreachable-remote",
        "unknown-strategy", "missing-required-flag", "unknown-command",
        "zero-beam-width", "width-flag-instead-of-strategy-string"])
def test_error_exit_codes(argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "suite"])
@pytest.mark.parametrize("strategy", ["beam:1025", "sc:1025", "cntp_sc:2048", "best_of_n:1025"])
def test_a_width_past_the_cap_exits_1_before_decoding(command, strategy, capsys, monkeypatch):
    """Every root that takes a width rejects one past WIDTH_CAP, in decode
    and suite alike, with the cap in the message and nothing decoded. The
    widths stay near the cap: a width without a bound builds one seed and
    one lane per path, so a huge one exhausts memory."""
    assert WIDTH_CAP == 1024
    for decoder in ("lane_decode", "beam_search_decode", "stochastic_decode", "cntp_decode",
                    "best_of_n_whole_ppl"):
        monkeypatch.setattr(runner, decoder, _no_decode)
    inputs = (["--prompt", "the"] if command == "decode"
              else ["--tasks", "bundled:kgram", "--seeds", "0"])
    assert main([command, "--model", "bundled:kgram", "--config", "bundled:kgram", *inputs,
                 "--strategy", strategy, "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"strategy parameter must be at most {WIDTH_CAP}" in err
    assert parse_strategy(strategy.split(":")[0] + f":{WIDTH_CAP}")[1] == WIDTH_CAP


def _no_decode(*args):
    raise AssertionError("decoded a run past the width cap")


@pytest.mark.parametrize("config", [
    {"h_min": "x"}, {"n_max": True}, {"h_min": True},
], ids=["string-h_min", "bool-n_max", "bool-h_min"])
def test_config_values_of_the_wrong_type_exit_1(tmp_path, config, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q00",
               "--config", str(path), "--out", ""])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"{path}: {next(iter(config))} must be" in err


@pytest.mark.parametrize("config, message", [
    ({"n_max": 10**400}, "n_max must be at most"),
    ({"temperature": 5e-324}, "temperature must be 0 or at least 1e-300"),
], ids=["n_max-past-the-float-range", "subnormal-temperature"])
def test_config_values_out_of_range_exit_1(tmp_path, config, message, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["decode", "--model", "bundled:suite", "--prompt", "Q00", "--strategy", "cntp",
               "--config", str(path), "--out", ""])
    assert rc == 1
    assert f"{path}: {message}" in capsys.readouterr().err


_SUITE = ["--model", "bundled:suite", "--tasks", "bundled:suite", "--config", "bundled:suite",
          "--seeds", "0"]


@pytest.mark.parametrize("argv, message", [
    (["serve-stub", "--model", "bundled:suite", "--port", "70000"],
     "--port: must be an integer in 0..65535, got '70000'"),
    (["serve-stub", "--model", "bundled:suite", "--port", "-1"],
     "--port: must be an integer in 0..65535, got '-1'"),
    (["serve-stub", "--model", "bundled:suite", "--duration", "inf"],
     "--duration: must be a finite number of seconds ≥ 0, got 'inf'"),
    (["serve-stub", "--model", "bundled:suite", "--duration", "-1"],
     "--duration: must be a finite number of seconds ≥ 0, got '-1'"),
    (["serve-stub", "--model", "bundled:suite", "--duration", "nan"],
     "--duration: must be a finite number of seconds ≥ 0, got 'nan'"),
    (["suite", *_SUITE, "--workers", "-2"], "--workers: must be an integer ≥ 1, got '-2'"),
    (["suite", *_SUITE, "--workers", "0"], "--workers: must be an integer ≥ 1, got '0'"),
    (["ablate", *_SUITE, "--axis", "n_max_sweep", "--values", "1,2", "--workers", "-2"],
     "--workers: must be an integer ≥ 1, got '-2'"),
    (["theorem", "--node-budget", "0"], "--node-budget: must be an integer ≥ 1, got '0'"),
    (["theorem", "--node-budget", "-1"], "--node-budget: must be an integer ≥ 1, got '-1'"),
], ids=["port-past-65535", "negative-port", "infinite-duration", "negative-duration",
        "nan-duration", "negative-workers", "zero-workers", "ablate-negative-workers",
        "zero-node-budget", "negative-node-budget"])
def test_out_of_range_flags_exit_1_before_anything_starts(tmp_path, monkeypatch, argv,
                                                          message, capsys):
    monkeypatch.chdir(tmp_path)  # where suite writes its default runs/ directory
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert f"usage error: argument {message}" in err


_DECODE = ["decode", "--model", "bundled:suite", "--prompt", "Q00", "--out", ""]
_ABLATE = ["ablate", *_SUITE[:-2], "--seeds", "0"]


@pytest.mark.parametrize("argv, message", [
    (["suite", *_SUITE[:-2], "--seeds", "1,,2"], "bad seed list '1,,2' in --seeds: empty item"),
    (["suite", *_SUITE[:-2], "--seeds", "1,"], "bad seed list '1,' in --seeds: empty item"),
    (["suite", *_SUITE[:-2], "--seeds", "1_000"], "in --seeds: not an integer: '1_000'"),
    (["suite", *_SUITE[:-2], "--seeds", "٣"], "in --seeds: not an integer: '٣'"),
    (["suite", *_SUITE[:-2], "--seeds", " , "], "empty seed list in --seeds"),
    ([*_ABLATE, "--axis", "n_max_sweep", "--values", "1,,5"],
     "--values: empty item in value list '1,,5'"),
    ([*_ABLATE, "--axis", "n_max_sweep", "--values", "1_0"], "--values: not an integer: '1_0'"),
    ([*_ABLATE, "--axis", "best_of_n", "--values", "٣"], "--values: not an integer: '٣'"),
    ([*_ABLATE, "--axis", "temperature_top_p_grid", "--values", "1_0x0.9"],
     "--values: not a real number: '1_0'"),
    ([*_DECODE, "--seed", "1_0"], "argument --seed: must be an integer, got '1_0'"),
    ([*_DECODE, "--n-max", "３"], "argument --n-max: must be an integer, got '３'"),
    ([*_DECODE, "--branch-cap", " 5"], "argument --branch-cap: must be an integer, got ' 5'"),
    ([*_DECODE, "--global-cap", "+5"], "argument --global-cap: must be an integer, got '+5'"),
    ([*_DECODE, "--temperature", "1_0"],
     "argument --temperature: must be a real number, got '1_0'"),
    ([*_DECODE, "--top-p", "０.５"], "argument --top-p: must be a real number, got '０.５'"),
    ([*_DECODE, "--h-min", "٠.1"], "argument --h-min: must be a real number, got '٠.1'"),
    ([*_DECODE, "--h-max", "1.5 "], "argument --h-max: must be a real number, got '1.5 '"),
    (["suite", *_SUITE, "--workers", "２"], "argument --workers: must be an integer ≥ 1, got '２'"),
    (["theorem", "--node-budget", "1_000"],
     "argument --node-budget: must be an integer ≥ 1, got '1_000'"),
    (["serve-stub", "--model", "bundled:suite", "--port", "٣"],
     "argument --port: must be an integer in 0..65535, got '٣'"),
    (["serve-stub", "--model", "bundled:suite", "--duration", "1_0"],
     "argument --duration: must be a finite number of seconds ≥ 0, got '1_0'"),
    (["replay", "--record", "records.jsonl", "--line", "1_0"],
     "argument --line: must be an integer, got '1_0'"),
    (["train-kgram", "--corpus", "c.txt", "--out", "m.kgram", "--k", "٣"],
     "argument --k: must be an integer, got '٣'"),
    (["train-kgram", "--corpus", "c.txt", "--out", "m.kgram", "--alpha", "0_1"],
     "argument --alpha: must be a real number, got '0_1'"),
    ([*_DECODE, "--strategy", "beam:1_0"], "strategy parameter must be an integer: 'beam:1_0'"),
])
def test_numeric_text_outside_ascii_decimal_syntax_exits_1(tmp_path, monkeypatch, argv,
                                                          message, capsys):
    """Every numeric flag and list item is read as ASCII decimal text:
    underscores, other scripts' digits, surrounding spaces and empty list
    items are rejected, not converted, and nothing starts."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert message in err


def test_spaces_around_list_items_are_accepted(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["suite", *_SUITE[:-2], "--strategy", "greedy", "--seeds", " 0 , 1 ",
                 "--out", out]) == 0
    assert "seeds=2" in capsys.readouterr().out


@pytest.mark.parametrize("port", ["99999", "65536", "0", "٣", "²", "-1", "+80", " 80", "", "8O",
                                  "0" * 6 + "80"])
def test_remote_ports_outside_ascii_1_to_65535_exit_3_without_connecting(port, monkeypatch,
                                                                          capsys):
    """A port past 65535 is not wrapped into range, and other scripts'
    digits are not read as ASCII ones: no connection is tried."""
    monkeypatch.setattr(socket, "create_connection", _no_connection)
    assert main([*_DECODE[:2], f"remote:127.0.0.1:{port}", *_DECODE[3:]]) == 3
    err = capsys.readouterr().err
    assert f"backend error: remote address must be host:port, got '127.0.0.1:{port}'" in err


def _no_connection(*args, **kwargs):
    raise AssertionError("connected to a rejected address")


@pytest.mark.parametrize("command", [
    ["suite", *_SUITE[:-2], "--strategy", "greedy"],
    ["ablate", *_SUITE[:-2], "--axis", "n_max_sweep", "--values", "1,2"],
], ids=["suite", "ablate"])
@pytest.mark.parametrize("seeds", ["18446744073709551616", "-1", "0,18446744073709551616"])
def test_seeds_outside_64_bits_exit_1(tmp_path, monkeypatch, command, seeds, capsys):
    """A seed past 2**64-1 or below 0 is not wrapped into range: 2**64
    would decode exactly what seed 0 decodes."""
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--seeds", seeds]) == 1
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert "usage error: bad seed list" in err
    assert "seed must be a 64-bit unsigned integer" in err


@pytest.mark.parametrize("seed", [2**64, -1, True, 1.0])
def test_run_suite_and_run_ablation_reject_seeds_outside_64_bits(seed, suite_bundle):
    model, tasks, config = suite_bundle
    with pytest.raises(ValueError, match="seed must be"):
        run_suite(model, tasks, "greedy", config, [0, seed])
    with pytest.raises(ValueError, match="seed must be"):
        run_ablation(AblationSpec("n_max_sweep", (1, 2)), config, model, tasks, [seed])


def test_theorem_over_its_node_budget_exits_1(capsys):
    assert main(["theorem", "--node-budget", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage error: case_a: enumeration exceeded 1 nodes; raise --node-budget" in err


@pytest.mark.parametrize("prefix", [["z"], [True]], ids=["string-token", "bool-token"])
def test_scripted_rows_with_bad_prefixes_exit_2(tmp_path, prefix, capsys):
    path = tmp_path / "bad.model"
    path.write_text(json.dumps({
        "tokens": ["a.", "b.", ""], "eos": 2,
        "rows": [{"prefix": prefix, "probs": [0.5, 0.5, 0.0]}],
        "default": [0.0, 0.0, 1.0],
    }), encoding="utf-8")
    rc = main(["decode", "--model", str(path), "--prompt", "a.", "--out", ""])
    assert rc == 2
    assert "row 0: prefix must be a list of integers, got" in capsys.readouterr().err


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


_SCRIPTED = {"tokens": ["a.", ""], "eos": 1, "rows": [], "default": [0.5, 0.5]}
_KGRAM = {"k": 1, "alpha": 0.5, "tokens": ["a", ""], "eos": 1, "counts": {"0": {"0": 2}}}


@pytest.mark.parametrize("base, field, value, message", [
    (_SCRIPTED, "eos", True, "eos must be an integer, got True"),
    (_KGRAM, "eos", True, "eos must be an integer, got True"),
    (_KGRAM, "k", True, "k must be an integer, got True"),
    (_KGRAM, "alpha", "1", "alpha must be a real number, got '1'"),
], ids=["scripted-bool-eos", "kgram-bool-eos", "kgram-bool-k", "kgram-string-alpha"])
def test_model_files_with_mistyped_fields_exit_2(tmp_path, base, field, value, message,
                                                 capsys):
    kgram = base is _KGRAM
    path = tmp_path / ("m.kgram" if kgram else "m.model")
    path.write_text(json.dumps({**base, field: value}), encoding="utf-8")
    rc = main(["decode", "--model", str(path), "--prompt", "a" if kgram else "a.",
               "--strategy", "greedy", "--out", ""])
    assert rc == 2
    assert message in capsys.readouterr().err


_TASK = {"id": "t", "prompt": "Q00", "reference_answer": "x", "extractor": "full_text"}


def _record() -> dict:
    """A stored record that replays: greedy on the bundled suite."""
    model, tasks, config = build_fixture_suite()
    return run_one(model, tasks[0], "greedy", config, model_spec="bundled:suite")[0].to_dict()


def _json(value) -> bytes:
    return json.dumps(value).encode()


_DECODE_MODEL = ["decode", "--model", "{}", "--out", ""]
_SUITE_TASKS = ["suite", "--model", "bundled:suite", "--tasks", "{}", "--seeds", "0", "--out", ""]


def _scripted(**fields):
    return "m.model", _json({**_SCRIPTED, **fields}), _DECODE_MODEL + ["--prompt", "a."]


def _kgram(counts):
    return "m.kgram", _json({**_KGRAM, "counts": counts}), _DECODE_MODEL + ["--prompt", "a"]


def _tasks(content: bytes):
    return "t.tasks", content, _SUITE_TASKS


# name -> ((file name, file bytes, argv reading it), exit code, message). Each
# input ended in a traceback, was quietly coerced, or exited with the wrong code.
_MALFORMED = {
    "scripted-rows-not-a-list": (
        _scripted(rows=5), 2, "rows must be a list of JSON objects, got 5"),
    "scripted-bool-probabilities": (
        _scripted(default=[False, True]), 2,
        "default must be a list of real numbers, got [False, True]"),
    "scripted-number-token": (_scripted(tokens=[1, ""]), 2, "tokens must be a list of strings"),
    "kgram-next-token-out-of-range": (_kgram({"0": {"7": 2}}), 2, "'7' is not a token id below 2"),
    "kgram-bool-count": (_kgram({"0": {"0": True}}), 2, "counts must be integers"),
    "kgram-real-count": (_kgram({"0": {"0": 2.7}}), 2, "counts must be integers"),
    "kgram-negative-count": (_kgram({"0": {"0": -5}}), 2, "counts must be integers"),
    "kgram-context-out-of-range": (_kgram({"5": {"0": 2}}), 2, "'5' is not a token id below 2"),
    "kgram-context-longer-than-k": (
        _kgram({"0,0": {"0": 2}}), 2, "contexts must be k=1 token ids"),
    "kgram-padded-token-id": (_kgram({" 0": {"0": 2}}), 2, "' 0' is not a token id"),
    "task-number-extractor": (
        _tasks(_json({**_TASK, "extractor": 5})), 2, "line 1: extractor must be a string, got 5"),
    "task-number-id": (_tasks(_json({**_TASK, "id": 5})), 2, "line 1: id must be a string, got 5"),
    "task-file-not-utf8": (_tasks(b'{"id": "\xff"}\n'), 2, "not UTF-8 text"),
    "corpus-not-utf8": (
        ("c.txt", b"the \xff cat", ["train-kgram", "--corpus", "{}", "--out", "{}.kgram"]),
        2, "not UTF-8 text"),
    "config-not-utf8": (
        ("c.json", b'{"h_min": "\xff"}',
         ["decode", "--model", "bundled:suite", "--prompt", "Q00", "--config", "{}", "--out", ""]),
        1, "not UTF-8 text"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_files_exit_with_their_code(tmp_path, name, capsys):
    (filename, content, argv), code, message = _MALFORMED[name]
    path = tmp_path / filename
    path.write_bytes(content)
    assert main([arg.replace("{}", str(path)) for arg in argv]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("patch, message", [
    ({"config": 5}, "config must be a JSON object, got 5"),
    ({"config": []}, "config must be a JSON object, got []"),
    ({"tokens": "abc"}, "tokens must be a list of integers, got 'abc'"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"correct": 1}, "correct must be true or false, got 1"),
    ({"cost": {"forward_passes": 1.5}}, "cost: forward_passes must be an integer, got 1.5"),
    ({"config": {"n_max": 0}}, "line 1: config: n_max must be ≥ 1"),
    ({"strategy": "mystery"}, "line 1: unknown strategy 'mystery'"),
], ids=["config-number", "config-list", "tokens-string", "seed-string", "correct-number",
        "cost-fields", "config-value", "unknown-strategy"])
def test_malformed_records_exit_2(tmp_path, patch, message, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps({**_record(), **patch}) + "\n", encoding="utf-8")
    assert main(["replay", "--record", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_replay_of_a_record_whose_config_leaves_the_seed_at_its_default(tmp_path, capsys):
    record = _record()
    record["config"] = {k: v for k, v in record["config"].items() if k != "seed"}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["replay", "--record", str(path)]) == 0
    assert "seed 0" in capsys.readouterr().out


def test_decodes_through_a_serve_stub_process_match_local_decodes(capsys):
    """cntp decode --model remote: against a cntp serve-stub process, for
    cntp on every bundled k-gram task: the output and the ledger line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cntp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
            [sys.executable, "-m", "cntp.harness.cli", "serve-stub", "--model", "bundled:kgram",
             "--duration", "300"], stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            address = proc.stdout.readline().split()[-1]
            for task in load_tasks(bundled_path("kgram.tasks")):
                args = ["--prompt", task.prompt, "--strategy", "cntp", "--config",
                        "bundled:kgram", "--out", ""]
                outputs = []
                for model in (f"remote:{address}", "bundled:kgram"):
                    assert main(["decode", "--model", model, *args]) == 0
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1], task.id
        finally:
            proc.terminate()
