"""Side-by-side work: the one fork helper, the share cap and the series format.

_fork_map is the package's one way to run work in several processes.  A
(step, node, value) table of R rows is cut into n <= MAX_SHARES row shares,
rows [R k // n, R (k + 1) // n) for k = 0, ..., n - 1, which _write_files
writes side by side.  The writer is not in cli: without a bytecode cache
every run compiles cli.py, and these lines there raised the peak RSS of
`heatctrl sweep` at 64² by 0.7 MiB.
"""

import contextlib
import os
import pickle
import sys
import tempfile

from .linalg import SolverError


def _usable_cpus():
    """The CPUs this process may use, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, items):
    """[fn(item) for item in items], item i computed in process i % n.

    The package's one way to run work side by side.  n is the number of
    CPUs this process may use, capped at len(items).  Process 0 is this
    one; the others are forked children, which inherit everything this
    process holds, pickle their results back over a pipe and leave through
    os._exit.  With n = 1 nothing is forked.  Each process stops at its
    first exception; once every pipe is read and every child reaped, the
    first failure in item order is raised.  A child that dies without a
    result is a SolverError naming its items.
    """
    n = min(len(items), _usable_cpus())
    parent = os.getpid()
    # a child must not write out what this process has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    for rank in range(1, n):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                payload = pickle.dumps(_share(fn, items, rank, n, parent))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        children.append((pid, read_end))
    payloads, codes = [], [0]
    try:
        outcomes = _share(fn, items, 0, n, parent)
    finally:
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                payloads.append(pipe.read())
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for payload in payloads:
        if payload:
            outcomes.update(pickle.loads(payload))
    results = []
    for i in range(len(items)):
        # a share ends at its first failure, which precedes its missing items
        if i not in outcomes:
            raise SolverError(f"a worker for {items[i::n]} exited with "
                              f"code {codes[i % n]} without a result")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _share(fn, items, rank, n, parent):
    """{i: (True, fn(items[i])) or (False, exception)} for i = rank, rank + n, ...

    Stops after the first exception.  A child (rank > 0) whose parent has
    gone exits before its next item.
    """
    outcomes = {}
    for i in range(rank, len(items), n):
        if rank and os.getppid() != parent:
            os._exit(1)
        try:
            outcomes[i] = (True, fn(items[i]))
        except Exception as exc:
            outcomes[i] = (False, exc)
            break
    return outcomes


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
    _fork_map.  n is the number of CPUs this process may use,
    capped at MAX_SHARES and at the rows of the longest series table.  This
    process writes each file in order, of a series table its share 0 only.
    Share k > 0 of every series table, one after the other, goes into the
    k-th anonymous temporary file in out, opened before the fork; once every
    share is written, each table's part of each share is appended to it in
    order, so the bytes do not depend on n.  When writing stops at an
    exception, every file whose writing began and did not finish is removed
    before the exception is raised again.
    """
    n = min(_usable_cpus(), MAX_SHARES,
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
            _, *counts = _fork_map(share, list(range(n)))
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
