"""The README's library example runs, and its CLI examples parse, as documented.

The examples are read from README.md when the tests run, so the file and
the API cannot drift apart unnoticed.
"""

import re
import shlex
from pathlib import Path

from freqassign.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
