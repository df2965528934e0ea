"""Every script under demos/ and the README's python examples run to completion,
with warnings as errors, against the package under test; the README's command
lines exit 0 and print strict JSON."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rieszforge
from rieszforge.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(rieszforge.__file__).resolve().parents[1])
# a `print(...)  # expected` line; an expectation ending in "..." is a prefix
EXPECTED = re.compile(r"^\s*print\(.*\)\s*#\s*(.+?)\s*$")


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_print_what_they_say():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    code = "\n".join(blocks)
    expected = [m.group(1) for line in code.splitlines() if (m := EXPECTED.match(line))]
    assert len(blocks) >= 2 and expected
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    assert len(got) == len(expected), proc.stdout
    for line, want in zip(got, expected):
        if want.endswith("..."):
            assert line.startswith(want[:-3]), (line, want)
        else:
            assert line == want


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")


README_COMMANDS = re.search(r"^## Command line\n\n```\n(.*?)^```",
                            (ROOT / "README.md").read_text(), flags=re.M | re.S).group(1)


@pytest.mark.parametrize("line", README_COMMANDS.splitlines(),
                         ids=lambda line: " ".join(line.split()[1:3]))
def test_readme_command_lines_exit_0(capsys, line):
    prog, *argv = shlex.split(line)
    assert prog == "rieszforge"
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "selftest":
        assert out.splitlines()[-1] == "5/5 checks passed"
    else:
        assert json.loads(out, parse_constant=_no_constant)["command"] == argv[0]
