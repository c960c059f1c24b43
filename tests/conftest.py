import json
import signal
from importlib import resources
from typing import NamedTuple

import jsonschema
import pytest

from momentforge.cli import main
from momentforge.families import domino


@pytest.fixture
def alarm():
    """Turn a request that runs away into a failure: the test gets 30 s."""

    def expired(signum, frame):
        raise TimeoutError("request ran past 30 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Run(NamedTuple):
    argv: list[str]
    code: int
    out: str
    err: str


@pytest.fixture
def run(alarm, monkeypatch, capsys):
    """Run the CLI in process, ``main(argv)`` within the test's 30 s: its argv, exit code, stdout and stderr."""

    def run(*argv: str) -> Run:
        # a face sweep kept from an earlier argv would serve this one
        monkeypatch.setattr(domino, "_SWEEPS", {})
        code = main(list(argv))
        out, err = capsys.readouterr()
        return Run(list(argv), code, out, err)

    return run


@pytest.fixture(scope="session")
def served():
    """Check a served run and return its payload (None for CSV) and manifest: exit 0, a last stderr line
    that is a manifest naming the argv's subcommand, and JSON that ``output.schema.json`` validates naming it too."""
    schema = json.loads(resources.files("momentforge").joinpath("schemas/output.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)(schema)

    def check(proc: Run):
        assert proc.code == 0, proc.err
        manifest = json.loads(proc.err.splitlines()[-1])
        assert {"subcommand", "parameters", "tool_version", "output", "wall_time_s"} <= manifest.keys(), manifest
        assert manifest["subcommand"] == proc.argv[0]
        if manifest["format"] == "csv":
            return None, manifest
        payload = json.loads(proc.out)
        validator.validate(payload)
        assert payload["subcommand"] == proc.argv[0]
        return payload, manifest

    return check
