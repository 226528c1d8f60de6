"""One `rmis` operation in a fresh interpreter.

    python3 bench/child.py [--cap-mib N] [--measure] '<argv as JSON>'

`--cap-mib N` caps this process's address space at N MiB first; a
MemoryError then exits with code 3. `--measure` adds the operation's peak
resident memory above the interpreter's own and, for `simulate`, the
message counts of `CountingProgram`.

The last line of standard output is a JSON record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def peak_rss_kib() -> int:
    """This process's peak resident set. Unlike `ru_maxrss`, which a child
    inherits from its parent across fork and exec, VmHWM starts afresh.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cap-mib", type=int)
    parser.add_argument("--measure", action="store_true")
    parser.add_argument("argv")
    args = parser.parse_args()
    argv = json.loads(args.argv)

    if args.cap_mib:
        cap = args.cap_mib * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    from rmis import cli, localsim

    import tracing

    programs: list[tracing.CountingProgram] = []
    if args.measure:
        localsim.rmis_forall_program = tracing.counting_factory(programs)
    baseline_kib = peak_rss_kib()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            rc = cli.main(argv)
            seconds = perf_counter() - start
    except MemoryError:
        out = None  # drop the partial output before reporting
        print(f"MemoryError under a {args.cap_mib} MiB address-space cap", file=sys.stderr)
        return 3
    record = {"rc": rc, "seconds": seconds, "out": out.getvalue()}
    if args.measure:
        record["peak_mib"] = (peak_rss_kib() - baseline_kib) / 1024
        record["sim"] = [p.totals() for p in programs]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
