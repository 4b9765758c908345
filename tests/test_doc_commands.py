"""Every documented command line of the repo's CLIs parses.

Collects each ``python -m repro.parallel.cli | repro.obs |
repro.benchhistory`` command from the fenced code blocks of ``README.md``
and ``docs/*.md`` (joining ``\\`` continuations, dropping a ``$`` prompt
and leading ``VAR=value`` assignments) and feeds its arguments to that
module's ``build_parser().parse_args``.  Nothing executes: the test only
catches a flag or subcommand the docs name that the parser no longer
takes.
"""

import pathlib
import re
import shlex

import pytest

from repro.benchhistory.cli import build_parser as benchhistory_parser
from repro.obs.cli import build_parser as obs_parser
from repro.parallel.cli import build_parser as parallel_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PARSERS = {
    "repro.parallel.cli": parallel_parser,
    "repro.obs": obs_parser,
    "repro.benchhistory": benchhistory_parser,
}
COMMAND = re.compile(
    r"^(?:\$\s+)?(?:\w+=\S*\s+)*python3?\s+-m\s+(%s)(?:\s+(.*))?$"
    % "|".join(re.escape(module) for module in PARSERS)
)


def fenced_lines(text):
    """The lines inside fenced code blocks, ``\\`` continuations joined."""
    inside, pending = False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside, pending = not inside, ""
            continue
        if not inside:
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield (pending + line).strip()
        pending = ""


def documented_commands():
    for path in DOCS:
        for line in fenced_lines(path.read_text()):
            match = COMMAND.match(line)
            if match:
                module, rest = match.groups()
                yield path.relative_to(ROOT), module, rest or ""


COMMANDS = list(documented_commands())


def test_the_collector_finds_commands():
    # Guards the collector: a regex or fence change that finds nothing
    # would otherwise pass vacuously.
    assert len(COMMANDS) >= 10
    assert {"repro.parallel.cli", "repro.obs"} <= {module for _, module, _ in COMMANDS}


@pytest.mark.parametrize(
    "path, module, rest",
    COMMANDS,
    ids=[f"{path}:{' '.join(rest.split()[:3])}" for path, _, rest in COMMANDS],
)
def test_documented_command_parses(path, module, rest):
    argv = shlex.split(rest, comments=True)
    try:
        PARSERS[module]().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{path}: `python -m {module} {rest}` does not parse ({exc})")
