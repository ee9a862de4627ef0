"""The README's library example runs, its CLI examples parse, and the
package names it quotes exist, as documented.

The examples and names are read from README.md when the tests run, so the
file and the API cannot drift apart unnoticed.
"""

import importlib
import re
import shlex
from functools import reduce
from pathlib import Path

import freqassign
from freqassign.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("channel", "worstcase", "profits", "qmkp", "bench", "cli")


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].endswith(" m") and " dB at " in lines[0]


def test_cli_examples_parse():
    """Every documented command parses, so no documented flag can drop out of the parser."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    examples = [b for b in blocks if "\nfreqassign " in "\n" + b]
    assert len(examples) == 1
    commands = [
        shlex.split(line, comments=True)
        for line in examples[0].replace("\\\n", " ").splitlines()
        if line.startswith("freqassign ")
    ]
    assert len(commands) == 5
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_quoted_names_exist():
    """Every backticked name that starts with a package module (``bench.SOLVERS``)
    or with a name the package exports (``Instance.from_profit_table``)
    resolves as an attribute chain.  A bare name is checked only while
    ``__all__`` lists it; quote an unexported one with its module."""
    spans = re.findall(r"`([A-Za-z_][\w.]*)`", README.read_text(encoding="utf-8"))
    chains = [span.removeprefix("freqassign.").split(".") for span in spans]
    chains = [c for c in chains if c[0] in MODULES or c[0] in freqassign.__all__]
    assert len(chains) >= 20
    missing = []
    for head, *rest in chains:
        root = importlib.import_module(f"freqassign.{head}") if head in MODULES else freqassign
        try:
            reduce(getattr, rest if head in MODULES else [head, *rest], root)
        except AttributeError:
            missing.append(".".join([head, *rest]))
    assert missing == []
