"""Every numeric option of every subcommand at its boundary values.

The cases come from `cli.SUBCOMMANDS`' option tables, so a new option is
covered without a new test. Each run must end in a documented exit code
(0 success, 1 usage, 2 data, 3 numeric) without a traceback, and may
succeed only where ALLOWED gives the reason the value is meaningful; a
usage error names the option's flag. Every run is sized to take
milliseconds.
"""

import json

import pytest

from rawphone.cli import LEAST, POSITIVE, SUBCOMMANDS, main

VALUES = ("-1", "0", "nan", "inf")

# (subcommand, option key, value) -> why the run may succeed
ALLOWED = {
    **{("synth", split, "0"): "an empty split is a corpus without that split"
       for split in ("train", "cv", "test")},
    ("synth", "harmonic_gain", "0"): "pure tones, without the harmonic",
    ("synth", "noise_sigma", "0"): "noise-free tones",
    ("synth", "cycle_bias", "0"): "0 is the default: no bigram bias",
    **{(sub, "seed", "0"): "0 is a seed"
       for sub in ("synth", "train", "grid", "ablate-pool", "check-grad")},
    **{(sub, "window_frames", "0"): "0 is the default: the window is --window-ms"
       for sub in ("train", "ablate-pool")},
    **{(sub, "feature_dim", "0"): "0 is the default: raw waveform input"
       for sub in ("train", "grid", "ablate-pool")},
    **{(sub, "raw_sample_rate", "0"): "0 is the default: no headerless float input"
       for sub in ("train", "grid", "decode", "ablate-pool")},
    **{(sub, "lr", "0"): "frozen parameters, a documented baseline"
       for sub in ("train", "grid", "ablate-pool")},
    ("train", "crf_lr", "0"): "frozen transitions, as --lr 0 freezes the network",
    ("train", "crf_epochs", "0"): "no CRF training, as documented",
    ("grid", "stages_count", "0"): "networks without stages",
    ("grid", "max_configs", "0"): "0 is the default: every configuration",
    ("filters", "sample_rate", "0"): "0 is the default: the model's sample rate",
}

TINY_NET = ["--window-ms", "10", "--stages", "8:4:2,2:1:1,2:1:1", "--filters", "2",
            "--hidden", "3", "--epochs", "1"]


def numeric_options():
    for name, _handler, _help, defaults, _paths in SUBCOMMANDS:
        for key, default in defaults.items():
            if isinstance(default, (int, float)) and not isinstance(default, bool):
                yield name, key


def exit_code(argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse's usage errors
        return e.code


@pytest.fixture(scope="module")
def base_args(tmp_path_factory):
    """Subcommand -> the arguments, bar --out and the option under test, of a tiny run."""
    root = tmp_path_factory.mktemp("bounds")
    synth = ["synth", "--train", "3", "--cv", "1", "--test", "1", "--min-duration-ms", "40",
             "--max-duration-ms", "60", "--min-segments", "2", "--max-segments", "3"]
    assert exit_code([*synth, "--out", root / "corpus"]) == 0
    train, cv, test = (root / "corpus" / f"{split}.jsonl" for split in ("train", "cv", "test"))
    splits = ["--train-manifest", train, "--cv-manifest", cv]
    args = {
        "synth": synth[1:],
        "train": [*splits, *TINY_NET, "--crf-epochs", "1"],
        "grid": [*splits, "--window-ms-list", "10", "--kernel-list", "4", "--filters-list", "2",
                 "--hidden-list", "3", "--pool-list", "2", "--stages-count", "1",
                 "--epochs", "1"],
        "ablate-pool": [*splits, "--test-manifest", test, *TINY_NET],
        "check-grad": ["--configs", "1"],
    }
    assert exit_code(["train", *args["train"], "--out", root / "model"]) == 0
    model = root / "model" / "model.rcn"
    args["decode"] = ["--manifest", test, "--model", model, "--decoder", "hmm"]
    args["filters"] = ["--model", model]
    return args


def test_every_subcommand_with_a_numeric_option_has_a_tiny_run(base_args):
    assert {name for name, _key in numeric_options()} == set(base_args)


def test_every_numeric_option_has_a_bound():
    numeric = {key for _name, key in numeric_options()}
    # hop_ms alone is bounded by the sample rate: it must round to one sample
    assert numeric - set(LEAST) - set(POSITIVE) == {"hop_ms"}
    assert set(LEAST) | set(POSITIVE) <= numeric
    assert not set(LEAST) & set(POSITIVE)
    assert {low for low in LEAST.values() if isinstance(low, str)} <= numeric


def test_config_file_value_is_checked_as_a_flag_value(base_args, tmp_path, capsys):
    config = tmp_path / "epochs.json"
    config.write_text(json.dumps({"epochs": 0}))
    splits = base_args["train"][:4]  # the manifests; --epochs 1 would beat the file
    rc = exit_code(["train", *splits, "--config", config, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "usage error: --epochs must be at least 1, got 0" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, key", list(numeric_options()))
def test_numeric_option_at_its_boundaries(base_args, tmp_path, capsys, subcommand, key):
    flag = "--" + key.replace("_", "-")
    for value in VALUES:
        out = tmp_path / value
        rc = exit_code([subcommand, *base_args[subcommand], flag, value, "--out", out])
        err = capsys.readouterr().err
        case = f"{subcommand} {flag} {value}: exit {rc}, stderr {err!r}"
        assert rc in (0, 1, 2, 3), case
        assert "Traceback" not in err, case
        assert (rc == 0) == ((subcommand, key, value) in ALLOWED), case
        if rc == 1:
            assert flag in err, case
