"""Count the code lines of each `src/heatctrl` module.

A code line is a line that is not blank and, stripped of its indentation,
does not start with `#`; docstrings count.  Prints one `module lines` row
per module of this checkout's `src/heatctrl`, in name order, then the
total.  Run from anywhere:

    python tests/code_lines.py

`count(package)` counts another checkout's package.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heatctrl"


def code_lines(path) -> int:
    """The code lines of one source file."""
    lines = (line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def count(package=PACKAGE) -> dict:
    """{module file name: code lines} for every module of the package."""
    return {path.name: code_lines(path) for path in sorted(Path(package).glob("*.py"))}


def main():
    counts = count()
    width = max(map(len, counts))
    for name, lines in counts.items():
        print(f"{name:<{width}} {lines:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
