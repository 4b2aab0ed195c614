"""Reference outputs from the switch interpreter, the benchmark's oracle.

Every program run the benchmark times is checked against what
``repro.jvm.interpreter.SwitchInterpreter`` observed for the same
program: the outcome, the return value, a digest of the printed
output and the instruction count.  The VM under test never produces a
reference.

References are keyed by the program's structural fingerprint (its
opcode/operand stream and block layout) and the instruction limit it
ran under, so a reference can only ever be applied to the exact
program it was computed from.  The default
seed's references are committed next to this file; regenerate them
with::

    python3 perfbench/oracle.py

References for other seeds cost about 2 s per million instructions to
compute.  They are computed before any timing starts, by child
processes of this script (``python3 perfbench/oracle.py --compute``)
that are waited for before the benchmark goes on, and cached in
``.perfbench/`` inside the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    import checkout
    checkout.use_checkout_sources()

from repro.jvm.errors import (StepLimitExceeded, UncaughtVMException,
                              VMRuntimeError)
from repro.jvm.interpreter import SwitchInterpreter
from repro.store import program_fingerprint

REFERENCE_FILE = Path(__file__).with_name("reference.json")
CACHE_NAME = "reference-cache.json"
# Child processes that compute missing references.
REFERENCE_WORKERS = 2


def normalize(value):
    """A JSON-safe, run-independent form of a program's return value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)      # keeps NaN and -0.0 distinguishable
    return f"<{type(value).__name__}>"


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def outcome_of(exc: BaseException) -> str:
    """The outcome string for a run that raised `exc`."""
    if isinstance(exc, UncaughtVMException):
        cls = getattr(getattr(exc, "value", None), "rtclass", None)
        return f"uncaught:{cls.name if cls else '?'}"
    if isinstance(exc, StepLimitExceeded):
        return "limit"
    if isinstance(exc, VMRuntimeError):
        return f"error:{type(exc).__name__}"
    return f"crash:{type(exc).__name__}"


def observation(value, output, instr_count) -> dict:
    return {"outcome": "return", "value": normalize(value),
            "digest": digest(output), "instr": instr_count}


def reference_of(program, max_instructions: int) -> dict:
    """Run `program` on the switch interpreter and record what it did."""
    interp = SwitchInterpreter(program, max_instructions)
    try:
        interp.run()
    except VMRuntimeError as exc:
        return {"outcome": outcome_of(exc)}
    return observation(interp.result, interp.output, interp.instr_count)


def mismatches(reference: dict, observed: dict) -> list[str]:
    """The fields in which `observed` differs from `reference`.

    A run that raised matches only a reference that raised the same
    way; the value, output and instruction count of a raising run are
    not observable through the VM facade and are not compared.
    """
    if observed.get("outcome") != reference.get("outcome"):
        return ["outcome"]
    if reference.get("outcome") != "return":
        return []
    return [key for key in ("value", "digest", "instr")
            if observed.get(key) != reference.get(key)]


class References:
    """Committed references plus the checkout's cache of computed ones.

    `committed` maps program id to an entry carrying its key (program
    fingerprint and instruction limit); `cached` maps key to entry.
    Lookups fall back to the switch interpreter and remember what they
    computed.
    """

    def __init__(self, committed: dict, cached: dict,
                 cache_path: Path | None) -> None:
        self.committed = committed
        self.cached = cached
        self.cache_path = cache_path
        self.computed = 0

    @classmethod
    def load(cls, cache_dir: Path | None) -> "References":
        committed = {}
        if REFERENCE_FILE.is_file():
            committed = json.loads(REFERENCE_FILE.read_text())["programs"]
        cache_path = cached = None
        if cache_dir is not None:
            cache_path = cache_dir / CACHE_NAME
            if cache_path.is_file():
                cached = json.loads(cache_path.read_text())
        return cls(committed, cached or {}, cache_path)

    def get(self, pid: str, key: str) -> dict | None:
        entry = self.committed.get(pid)
        if entry is not None and entry.get("key") == key:
            return entry
        return self.cached.get(key)

    def lookup_all(self, items, max_instructions: int) -> dict:
        """``{pid: reference}`` for every ProgramInput in `items`.

        Missing references are computed by child processes (see
        compute_references): the switch interpreter is slow, and this
        is the longest step of a run with a new seed.
        """
        keys = {item.pid: f"{program_fingerprint(item.build())}:"
                          f"{max_instructions}" for item in items}
        missing = [item for item in items
                   if self.get(item.pid, keys[item.pid]) is None]
        if missing:
            computed = compute_references(missing, max_instructions)
            for item, entry in zip(missing, computed):
                key = keys[item.pid]
                self.cached[key] = dict(entry, key=key)
            self.computed += len(missing)
        return {item.pid: self.get(item.pid, keys[item.pid])
                for item in items}

    def save_cache(self) -> None:
        if self.cache_path is None or not self.computed:
            return
        tmp = self.cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.cached, sort_keys=True))
        os.replace(tmp, self.cache_path)


def compute_references(items, max_instructions: int) -> list[dict]:
    """References for the ProgramInputs `items`, in order.

    The items are shared out over up to REFERENCE_WORKERS child
    processes (``oracle.py --compute``, fed a pickled list on standard
    input, answering with a JSON list).  Every child is waited for
    before this returns, and killed and waited for if anything fails,
    so no process outlives the call.
    """
    shares = [items[i::REFERENCE_WORKERS]
              for i in range(min(REFERENCE_WORKERS, len(items)))]
    children = []
    try:
        for share in shares:
            child = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--compute"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            children.append(child)
            child.stdin.write(pickle.dumps((share, max_instructions)))
            child.stdin.close()
        answers = []
        for child in children:
            out = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(
                    f"reference process exited with {child.returncode}")
            answers.append(json.loads(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    computed = [None] * len(items)
    for i, answer in enumerate(answers):
        computed[i::REFERENCE_WORKERS] = answer
    return computed


def _compute_main() -> int:
    """``--compute``: references for the pickled items on stdin."""
    items, max_instructions = pickle.load(sys.stdin.buffer)
    print(json.dumps([reference_of(item.build(), max_instructions)
                      for item in items]))
    return 0


def select_programs(workload, seed: int, refs: References):
    """The workload's programs for `seed` and their references.

    A program whose reference does not end within the workload's
    instruction limit is replaced by the next one from the generator:
    which programs run is decided by the switch interpreter alone,
    never by the VM under test.  Returns (inputs, references, excluded
    program ids).
    """
    import programs
    excluded = set()
    while True:
        inputs = programs.program_inputs(workload, seed, excluded)
        references = refs.lookup_all(inputs, workload.max_instructions)
        endless = {pid for pid, entry in references.items()
                   if entry["outcome"] == "limit"}
        if workload.mini_java or not endless:
            return inputs, references, sorted(excluded)
        excluded |= endless


def _write_reference_file(entries: dict, seed: int) -> None:
    lines = [f"  {json.dumps(pid)}: {json.dumps(entry, sort_keys=True)}"
             for pid, entry in entries.items()]
    REFERENCE_FILE.write_text(
        f'{{"seed": {seed}, "programs": {{\n'
        + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    """Regenerate the committed references for the default seed."""
    import programs
    refs = References({}, {}, None)
    entries = {}
    for workload in programs.WORKLOADS.values():
        entries.update(select_programs(workload, programs.DEFAULT_SEED,
                                       refs)[1])
    _write_reference_file(entries, programs.DEFAULT_SEED)
    print(f"wrote {len(entries)} references to {REFERENCE_FILE}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_compute_main() if sys.argv[1:] == ["--compute"] else main())
