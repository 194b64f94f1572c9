"""A command's output files, its series tables written in row shares side by side.

A (step, node, value) table of R rows is cut into n contiguous row shares,
rows [R k // n, R (k + 1) // n) for k = 0, ..., n - 1, which
analysis._fork_map writes in n processes.  This module holds the series
format, header and rows.  It is not part of cli: without a bytecode cache
every run compiles cli.py, and parsing these lines there raised the peak
RSS of `heatctrl sweep` at 64² by 0.7 MiB.
"""

import contextlib
import tempfile

from . import analysis

# at most this many shares, whatever the CPU count: each share past the
# first forks a copy of this process and holds a temporary file and a pipe
# open until the join
MAX_SHARES = 8


def _series_rows(fh, values, step0=0, node_ids=None, share=(0, 1)):
    """Write share k of n, share = (k, n), of a series table to fh.

    Share 0 begins with the header `step,node,value`; row (step, column) is
    `step,node,%.17g`, step counted from step0 and node the column index,
    or node_ids[column] when given, each line ended by CRLF.  The n shares
    in order are the whole table.
    """
    k, n = share
    if k == 0:
        fh.write("step,node,value\r\n")
    first, end = len(values) * k // n, len(values) * (k + 1) // n
    nodes = range(values.shape[1]) if node_ids is None else node_ids
    # joined with the step number as separator, these pieces make the
    # %-template of one step's rows
    pieces = [""] + [f",{int(node)},%.17g\r\n" for node in nodes]
    for step, row in enumerate(values[first:end], start=step0 + first):
        fh.write(str(step).join(pieces) % tuple(row.tolist()))


def _copy(src, dst, count):
    """Copy the next count bytes of the binary file src to dst, 64 KiB at a time."""
    for start in range(0, count, 1 << 16):
        dst.write(src.read(min(1 << 16, count - start)))


def _write_files(out, files, series):
    """Write files, {name: (writer, *arguments after the path)}, into out.

    The tables named in series, each (writer, values, *rest) where
    writer(path, values, *rest) writes _series_rows(fh, values, *rest) to
    path, are written in n row shares in the processes of
    analysis._fork_map.  n is the number of CPUs this process may use,
    capped at MAX_SHARES and at the rows of the longest series table.  This
    process writes each file in order, of a series table its share 0 only.
    Share k > 0 of every series table, one after the other, goes into the
    k-th anonymous temporary file in out, opened before the fork; once every
    share is written, each table's part of each share is appended to it in
    order, so the bytes do not depend on n.  When writing stops at an
    exception, every file whose writing began and did not finish is removed
    before the exception is raised again.
    """
    n = min(analysis._usable_cpus(), MAX_SHARES,
            max((len(files[name][1]) for name in series), default=1))
    begun, done = [], set()

    def share(k):
        """Write share k; of a share k > 0, its byte count per series table."""
        if k == 0:
            for name, (writer, *args) in files.items():
                begun.append(name)
                if name in series:
                    values, *rest = args
                    writer(out / name, values[:len(values) // n], *rest)
                else:
                    writer(out / name, *args)
                    done.add(name)
            return None
        counts = []
        with open(temps[k - 1].fileno(), "w", newline="", encoding="utf-8",
                  closefd=False) as fh:
            for name in series:
                # tell() of a text file only written to is its byte offset
                start = fh.tell()
                _series_rows(fh, *files[name][1:], share=(k, n))
                counts.append(fh.tell() - start)
        return counts

    with contextlib.ExitStack() as stack:
        temps = [stack.enter_context(tempfile.TemporaryFile(dir=out))
                 for _ in range(n - 1)]
        try:
            _, *counts = analysis._fork_map(share, list(range(n)))
            for temp in temps:  # a child's writes moved the shared offset
                temp.seek(0)
            for i, name in enumerate(series):
                with open(out / name, "ab") as fh:
                    for temp, share_counts in zip(temps, counts):
                        _copy(temp, fh, share_counts[i])
                done.add(name)
        except BaseException:
            for name in begun:
                if name not in done:
                    (out / name).unlink(missing_ok=True)
            raise
