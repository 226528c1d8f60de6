"""Mutants of the library: small deliberate edits, each of which some tier-1
test should fail.

Each mutant names a module of `src/rmis`, an exact text that occurs once in
it, the text that replaces it, and what the edit breaks. Running this file
applies each chosen mutant to its own copy of the repository in a
temporary directory, runs tier-1 there and prints the tests that failed. A
mutant that no test fails survives: either the tests miss what it breaks,
or it changes nothing a caller can see. A run takes as long as tier-1 per
mutant, so the list stays out of tier-1; `tests/test_mutants.py` only
checks that every old text still occurs exactly once.

From the repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 5      # the mutants at these indices
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = Path("src", "rmis")
TIMEOUT_S = 1200  # a mutant that makes tier-1 hang counts as caught


class Mutant(NamedTuple):
    module: str  # file name under src/rmis
    old: str
    new: str
    breaks: str


MUTANTS = [
    Mutant(
        "findrmis.py",
        "pick = PI if in_sorted(own, rt.attachment[child]) else",
        "pick = PI if own[:1] == (rt.attachment[child],) else",
        "witness_parts: a child takes PI only if its attachment point is the parent's first own vertex",
    ),
    Mutant(
        "findrmis.py",
        "            pick[child] = tag\n",
        "            pick[child] = PO if tag == PE else tag\n",
        "decide: a PE pick passes down to the child as PO",
    ),
    Mutant(
        "findrmis.py",
        "            return (rt.attachment[rt.children[x][0]],)\n",
        "            return (rt.attachment[x],)\n",
        "own: a B-node under PO owns its parent-side vertex, not its child's",
    ),
    Mutant(
        "findrmis.py",
        "return every | (out & some) or N\n",
        "return every | (out & some)\n",
        "articulation_mask: children that share no tag leave it with no tag instead of N",
    ),
    Mutant(
        "findrmis.py",
        "        out &= m | m >> 1\n",
        "        out &= m\n",
        "articulation_mask: a PE child no longer carries PO, so PO needs PO of every child",
    ),
    Mutant(
        "findrmis.py",
        "    out = (m & PI) << 1  # PI -> PO\n",
        "    out = (m & PI) << 2  # PI -> PO\n",
        "bridge_mask: a PI child gives PE instead of PO",
    ),
    Mutant(
        "findrmis.py",
        "    if m & (PI | PO) == PO:\n",
        "    if m & PO:\n",
        "bridge_mask: a PO child gives PE even when it also has PI",
    ),
    Mutant(
        "findrmis.py",
        "                if tag & other & PO:\n",
        "                if tag & other & (PO | PE):\n",
        "component_core: an edge between two PE vertices is set aside as if both could cover themselves",
    ),
    Mutant(
        "findrmis.py",
        "        tags[covered] = PO\n",
        "        tags[covered] = PE\n",
        "component_core: a covered attachment point reads as PE, so its edges to PO vertices stay",
    ),
    Mutant(
        "oracle.py",
        "b = block_of[j if j > k else k]",
        "b = block_of[j if j < k else k]",
        "is_robust_mis: an edge is placed in the block of its earlier-numbered endpoint",
    ),
    Mutant(
        "graph.py",
        "            if lx < p:\n",
        "            if lx <= p:\n",
        "blocks: a block whose low point is its top stays open and merges into the block above",
    ),
    Mutant(
        "twosat.py",
        "if k < lv and comp[w] == -1:",
        "if k < lv:",
        "_tarjan_scc: an edge into a finished component lowers the low point",
    ),
    Mutant(
        "graph.py",
        'if chunk[-1] != "\\n" or not _ALTERNATING',
        'if not _ALTERNATING',
        "_read_in_form: a chunk whose last line has no line end is read in bulk, dropping a lone last id",
    ),
    Mutant(
        "graph.py",
        'not _ALTERNATING.startswith(chunk.translate(_DIGITS))',
        '(seps := chunk.translate(_DIGITS)).count(" ") != seps.count("\\n")',
        "_read_in_form: separators that only balance in number, not alternate, pass as the serializer's form",
    ),
    Mutant(
        "graph.py",
        '.index(f"{u} {u}") + 1',
        '.index(f"{u} {u}")',
        "_read_in_form: a self-loop in a bulk-read chunk is reported one line early",
    ),
    Mutant(
        "graph.py",
        "                if lp < lx:\n                    lx = lp\n",
        "                lx = lp\n",
        "blocks: a finished vertex no longer lowers its parent's low point",
    ),
    Mutant(
        "twosat.py",
        "if lv < index[v]:",
        "if nodes:",
        "_tarjan_scc: the still-open test is dropped on return, so only a start node closes a component",
    ),
    Mutant(
        "twosat.py",
        "it = iter(succ[w])",
        "it = iter(succ[w][::-1])",
        "_tarjan_scc: every node but a start node reads its successors in reverse",
    ),
    Mutant(
        "twosat.py",
        "assignment.append(pos < neg)",
        "assignment.append(pos > neg)",
        "solve: each variable takes the literal whose component closes last, not first",
    ),
    Mutant(
        "graph.py",
        '_LINE_END = re.compile("\\r\\n|[',
        '_LINE_END = re.compile("[',
        "from_edge_list: a chunk may end between the \"\\r\" and \"\\n\" of a line end",
    ),
    Mutant(
        "graph.py",
        "todo = list(adj[start] if exits is None else exits)",
        "todo = list(adj[start])",
        "reach: the search leaves the start through every neighbour, whatever the exits",
    ),
    Mutant(
        "graph.py",
        "    for _ in range(radius):\n",
        "    for _ in range(radius - 1):\n",
        "ball: the search walks one layer short of the radius",
    ),
    Mutant(
        "localsim.py",
        "for j, p in zip(to[i], back[i]):",
        "for j, p in zip(to[i], range(msgs.degree)):",
        "run_sync: a broadcast lands on the sender's port number, not on the receiver's port back to it",
    ),
    Mutant(
        "localsim.py",
        "for i in order:\n        for p, j in enumerate(to[i]):",
        "for i in range(g.n):\n        for p, j in enumerate(to[i]):",
        "run_sync: the back tables are filled in node order, not id order, so mail lands on wrong ports",
    ),
    Mutant(
        "localsim.py",
        "                        woken.append(j)\n                    inbox[p] = msg\n",
        "                    inbox[p] = msg\n",
        "run_sync: a broadcast to an idle node fills its inbox but does not wake it",
    ),
    Mutant(
        "localsim.py",
        "return state.outbox or _NO_MAIL",
        'return state.outbox and Broadcast(state.degree, ("status", state.ident, state.decision)) or _NO_MAIL',
        "RmisForallProgram: a decided forest node announces its status on every port, not only to the forest",
    ),
    Mutant(
        "localsim.py",
        "labeled_ball_view(ball_beta, beta_end, pulled) ==",
        "labeled_ball_view(ball_b, b_end, pool) ==",
        "indistinguishability_check: b's view is compared with itself, so the check always holds",
    ),
    Mutant(
        "localsim.py",
        "if nb < ident and status != OUT:",
        "if nb > ident and status != OUT:",
        "_greedy_decision: the larger id takes priority in the leftover-forest greedy",
    ),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Make the mutant's edit in the repository at `root`."""
    path = root / LIBRARY / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.module}: the old text of {mutant.breaks!r} does not occur exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def failing_tests(mutant: Mutant) -> list[str]:
    """The tier-1 tests that fail with the mutant applied to a copy of the
    repository.
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        skip = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_runs", ".benchmarks")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*skip))
        apply(copy, mutant)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
        # the check that each old text occurs once fails on every mutant
        command += ["--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        try:
            proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"(tier-1 ran past {TIMEOUT_S} s)"]
    # "FAILED <test id> - <message>", where a parametrized id may hold spaces
    summary = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in summary]
    if not failed and proc.returncode:
        failed.append(f"(pytest exited {proc.returncode})")
    return failed


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    for i in chosen:
        mutant = MUTANTS[i]
        failed = failing_tests(mutant)
        survivors += not failed
        verdict = f"killed by {len(failed)}" if failed else "SURVIVED"
        print(f"[{i}] {mutant.module}: {mutant.breaks}: {verdict}", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
    print(f"killed {len(chosen) - survivors} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
