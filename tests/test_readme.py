"""The library example in README.md runs as written, and its command lines and
config file are ones the CLI accepts."""

import json
import re
import shlex
from pathlib import Path

import banach_sgd.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


def test_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    delta1, delta2 = map(float, capsys.readouterr().out.split())
    assert 0.0 < delta2 < 1.0 and delta1 > 0.0


def test_every_library_name_resolves():
    import banach_sgd

    names = set(re.findall(r"\bbs\.(\w+)", README.read_text(encoding="utf-8")))  # not obs.noise_level
    assert names and sorted(n for n in names if not hasattr(banach_sgd, n)) == []


def test_command_lines_parse_and_experiments_build_their_config(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: built.append(cfg) or 0)  # build, run nothing
    lines = [shlex.split(line, comments=True)[1:]
             for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("banach-sgd ")]
    assert {argv[0] for argv in lines} == {"solve", "experiment", "norm-estimate"}
    for argv in lines:
        cli._make_parser().parse_args(argv)
        if argv[0] == "experiment":
            assert cli.main(argv) == 0, argv
    assert len(built) == sum(argv[0] == "experiment" for argv in lines)


def test_config_example_builds():
    (block,) = _blocks("json")
    cli.build_config(json.loads(block))


def test_config_key_lists_match_the_cli_tables():
    text = " ".join(README.read_text(encoding="utf-8").split())
    common, presets = re.search(
        r"A config holds `preset`, the common keys \((.*?)\) and its own preset's keys: (.*?)\. ", text
    ).groups()
    ticked = lambda part: sorted(re.findall(r"`(\w+)`", part))
    assert ticked(common) == sorted(cli._COMMON_DEFAULTS)
    listed = {}
    for part in presets.split("; "):
        keys, preset = part.rsplit(" for ", 1)
        listed[preset.strip("`")] = ticked(keys)
    assert listed == {preset: sorted(table) for preset, table in cli._PRESET_DEFAULTS.items()}


def test_library_calls_name_real_parameters():
    import inspect

    import banach_sgd

    text = " ".join(README.read_text(encoding="utf-8").split())
    calls = [(name, args) for name, args in re.findall(r"`(?:[^`(]*?\bbs\.)?(\w+)\(([^`()]*)\)`", text)
             if hasattr(banach_sgd, name)]
    assert {"BlockOperator", "APrioriStop"} <= {name for name, _ in calls}
    for name, args in calls:
        params = inspect.signature(getattr(banach_sgd, name)).parameters
        listed = [a.split("=")[0].strip() for a in args.split(",")]  # a literal such as 2.5 names no parameter
        assert [a for a in listed if a.isidentifier() and a not in params] == [], name
