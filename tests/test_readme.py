"""The README's code examples run, parse and load as written."""

import re
import shlex
from pathlib import Path

from shiftscope.cli import _build_parser, load_shift_spec
from shiftscope.data import load_schema

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang: str, after: str = "") -> list[str]:
    """The ```lang blocks of the README, from the first ``after`` onwards."""
    text = README.read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text[text.index(after):], re.DOTALL)


def test_library_quickstart_runs(capsys):
    namespace = {}
    exec(compile(blocks("python", "## Library quickstart\n")[0], "README.md", "exec"), namespace)
    assert namespace["shifted"] == (1,)
    assert capsys.readouterr().out.startswith("(1,) ")


def test_cli_examples_parse():
    commands = [shlex.split(block.replace("\\\n", " ")) for block in blocks("bash")]
    commands = [argv for argv in commands if argv[0] == "shiftscope"]
    assert [argv[1] for argv in commands] == ["estimate", "simulate", "bench"]
    for argv in commands:
        assert _build_parser().parse_args(argv[1:]).command == argv[1]


def test_schema_and_spec_examples_load(tmp_path):
    schema_path, spec_path = tmp_path / "schema.json", tmp_path / "spec.json"
    schema_path.write_text(blocks("json", "**Schema**")[0])
    spec_path.write_text(blocks("json", "**Shift spec**")[0])
    schema = load_schema(schema_path)
    spec = load_shift_spec(spec_path, schema)
    assert spec.shifted == (schema.index_of("aged"),)
    assert len(spec.cells) == 4
