"""The lines of `src/heatctrl` that no test runs.

Runs pytest in this process under `sys.settrace`, tracing only frames of
`src/heatctrl`, and prints each executable line of that package that no test
ran, as `path:line  source`.  A line is executable when the compiled module
holds an instruction that starts it.  Every worker that `shares._fork_map`
forks leaves through `os._exit`, which skips every exit handler, so each
child writes the lines it ran to a spool directory just before it exits.  Processes that a
test starts with subprocess are not traced: their lines count as not run.

From the root of a checkout, for tier-1, or for any pytest arguments:

    PYTHONPATH=src python tests/unexecuted.py
    PYTHONPATH=src python tests/unexecuted.py -q tests/test_cli.py

Only the standard library and pytest itself are needed.  The exit code is
pytest's.
"""

import dis
import os
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heatctrl"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path) -> set:
    """Every line that starts an instruction of the module or of a code object
    in it; line 0, the module's entry, is no source line."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(args) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + os.sep
    ran = set()  # (file name, line)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    root, real_exit = os.getpid(), os._exit
    with tempfile.TemporaryDirectory() as spool:
        def traced_exit(code):
            try:
                if os.getpid() != root:
                    with open(os.path.join(spool, str(os.getpid())), "w") as fh:
                        fh.writelines(f"{name}\t{line}\n" for name, line in ran)
            finally:
                real_exit(code)  # a forked child must never run on into pytest

        os._exit = traced_exit
        sys.settrace(start)
        try:
            code = pytest.main(args or TIER1)
        finally:
            sys.settrace(None)
            os._exit = real_exit
        for child in Path(spool).iterdir():
            for entry in child.read_text().splitlines():
                name, line = entry.split("\t")
                ran.add((name, int(line)))

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
