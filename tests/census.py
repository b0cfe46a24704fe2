"""Branch census of ``src/lagtime``: the code that the package's callers never reach.

Run from the repository root::

    python tests/census.py

It records every instruction that runs in ``src/lagtime`` (``sys.settrace``
and ``threading.settrace`` with ``frame.f_trace_opcodes``; Python 3.11 has
no ``sys.monitoring``) while these callers run:

- one pass of each benchmark workload of ``perfbench/workloads.py`` at seed 1;
- acceptance criteria 1-8 (``tests/test_acceptance.py``);
- the command-line examples of ``README.md`` at small sizes, and one run of
  each ``choices=`` value of the command line.

For each source file it then prints the functions never entered, the lines
never run, and the arms never taken: each conditional jump that ran while one
of its two successors never did, at the ``line:column`` (``co_positions``,
columns from 0) where that successor starts. A conditional expression's
unreached arm therefore shows even when its line ran. A finding that is kept
by design carries a tag:

- ``raise``: inside a ``raise`` statement;
- ``except``: inside an ``except`` handler;
- ``reference``: the pure-Python path that runs when no C compiler is found:
  each function registered with ``@_kernel`` in ``lagtime._native``, and that
  module's own no-library and no-compiler arms;
- ``model-api``: a public name kept for the model API (``MODEL_API`` in
  ``tests/test_numerics.py``);
- ``cache``: an ``if`` whose body calls ``_build_kernels``, with its test:
  ``lagtime._native`` builds the kernels only when ``__pycache__`` holds no
  build, so whether that arm runs depends on the cache, not on the callers,
  and the count is the same on a cold and on a warm cache.

An untagged finding is code that no caller needs: delete it, or state in
``CHANGES.md`` why it stays. The last line counts the untagged arms. Pytest
does not collect this file; ``tests/test_census.py`` tests its arm finder.
"""

from __future__ import annotations

import ast
import dis
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lagtime"

# Conditional jumps; FOR_ITER's two successors are the loop body and the loop exit.
BRANCHES = {name for name in dis.opmap if "JUMP" in name and "_IF_" in name} | {"FOR_ITER"}
# Code objects whose lines count with the function around them.
COMPREHENSIONS = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}


def record(run, keep) -> dict:
    """Run ``run()`` with every instruction traced in the code whose file name
    ``keep`` accepts, on this thread and on threads started meanwhile.

    Returns ``{code object: offsets of the instructions that ran}``.
    """
    ran: dict = {}

    def tracer(frame, event, arg):
        if not keep(frame.f_code.co_filename):
            return None
        add = ran.setdefault(frame.f_code, set()).add

        def local(frame, event, arg):
            if event == "opcode":
                add(frame.f_lasti)
            return local

        frame.f_trace_opcodes = True
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def functions(code: types.CodeType):
    """``code`` and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from functions(const)


def traceable(code: types.CodeType) -> list:
    """The instructions of ``code`` after its ``RESUME``; the tracer sees no
    instruction before it."""
    instructions = list(dis.get_instructions(code))
    start = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
    return instructions[start + 1:]


def positions(code: types.CodeType) -> list:
    """``(line, column)`` of each two-byte code unit of ``code``."""
    return [(line, column) for line, _, column, _ in code.co_positions()]


def unreached_lines(code: types.CodeType, ran: set) -> set:
    """Lines of ``code`` (not of its nested code) none of whose traceable
    instructions ran."""
    where, reached = positions(code), {}
    for ins in traceable(code):
        line = where[ins.offset // 2][0]
        if line is not None:
            reached[line] = reached.get(line, False) or ins.offset in ran
    return {line for line, ok in reached.items() if not ok}


def unreached_arms(code: types.CodeType, ran: set) -> list:
    """``(jump, arm)`` positions, each ``(line, column)``, of every conditional
    jump in ``code`` that ran while the successor starting at ``arm`` never did
    (at the jump's own position where the successor has none)."""
    where, out, start = positions(code), [], None
    instructions = traceable(code)
    for jump, following in zip(instructions, instructions[1:]):
        # An instruction with an EXTENDED_ARG prefix is traced at its prefix.
        start = jump.offset if start is None else start
        if jump.opname == "EXTENDED_ARG":
            continue
        started, start = start, None
        if jump.opname in BRANCHES and started in ran:
            for successor in (following.offset, jump.argval):
                if successor not in ran:
                    arm = where[successor // 2]
                    out.append((where[jump.offset // 2],
                                arm if arm[0] is not None else where[jump.offset // 2]))
    return out


# ---------------------------------------------------------------------------
# tags


def _place(node, end=False) -> tuple:
    return (node.end_lineno, node.end_col_offset) if end else (node.lineno, node.col_offset)


def regions(tree: ast.Module) -> tuple:
    """``(bodies, tests)``: ``(tag, start, end)`` of each source region whose
    findings are kept by design, and of each ``if`` test whose jumps lead into
    one; ``start`` and ``end`` are ``(line, column)``.

    A ``raise`` or ``assert`` statement, an ``except`` handler, the body of a
    kernel's reference (a function decorated with ``_kernel(...)``) and the
    arm taken when ``_compiled_kernels()`` returns no library (or
    ``shutil.which`` no compiler) are kept; so is a guard, an ``if`` without
    ``else`` whose body ends in a ``raise`` or in another guard, with its test,
    and an ``if`` whose body builds the kernels, with its test.
    """
    bodies, tests = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.Assert)):
            bodies.append(("raise", _place(node), _place(node, end=True)))
        elif isinstance(node, ast.ExceptHandler):
            bodies.append(("except", _place(node), _place(node, end=True)))
        elif _guard(node) or _builds(node):
            tag = "raise" if _guard(node) else "cache"
            tests.append((tag, _place(node.test), _place(node.test, end=True)))
            bodies.append((tag, _place(node.body[0]), _place(node.body[-1], end=True)))
        elif isinstance(node, ast.FunctionDef):
            if _registered(node):
                bodies.append(("reference", _place(node.body[0]), _place(node.body[-1], end=True)))
            native = {target.id for assign in ast.walk(node) if isinstance(assign, ast.Assign)
                      and isinstance(assign.value, ast.Call)
                      and (getattr(assign.value.func, "id", None) == "_compiled_kernels"
                           or getattr(assign.value.func, "attr", None) == "which")
                      for target in ast.walk(assign.targets[0]) if isinstance(target, ast.Name)}
            for block in (getattr(inner, field, None) for inner in ast.walk(node)
                          for field in ("body", "orelse", "finalbody")):
                for index, statement in enumerate(block if isinstance(block, list) else ()):
                    test = getattr(statement, "test", None)
                    if not (isinstance(statement, ast.If) and isinstance(test, ast.Compare)
                            and getattr(test.left, "id", None) in native
                            and getattr(test.comparators[0], "value", 0) is None):
                        continue
                    tests.append(("reference", _place(test), _place(test, end=True)))
                    if isinstance(test.ops[0], ast.Is):
                        arm = statement.body
                    elif statement.orelse or not isinstance(statement.body[-1], ast.Return):
                        arm = statement.orelse
                    else:  # the statements after ``if library is not None: ... return``
                        arm = block[index + 1:]
                    if arm:
                        bodies.append(("reference", _place(arm[0]), _place(arm[-1], end=True)))
    return bodies, tests


def _registered(node: ast.FunctionDef) -> bool:
    """Whether ``node`` is a kernel's reference, decorated with ``_kernel(...)``."""
    return any(getattr(getattr(decorator, "func", None), "id", None) == "_kernel"
               for decorator in node.decorator_list)


def _guard(node) -> bool:
    return isinstance(node, ast.If) and not node.orelse and (
        isinstance(node.body[-1], ast.Raise) or _guard(node.body[-1]))


def _builds(node) -> bool:
    """Whether ``node`` is an ``if`` whose body calls ``_build_kernels``."""
    return isinstance(node, ast.If) and any(
        getattr(getattr(call, "func", None), "id", None) == "_build_kernels"
        for statement in node.body for call in ast.walk(statement))


def tag_of(bodies: list, place: tuple) -> str:
    """The tag of the innermost region that holds ``place``."""
    holding = [(first, tag) for tag, first, last in bodies if first <= place <= last]
    return max(holding)[1] if holding else ""


def line_tag(bodies: list, line: int) -> str:
    """The tag of the innermost region that spans ``line``."""
    holding = [(first, tag) for tag, first, last in bodies if first[0] <= line <= last[0]]
    return max(holding)[1] if holding else ""


def arm_tag(bodies: list, tests: list, jump: tuple, arm: tuple) -> str:
    """The tag of an arm: of the region it starts in, or of the test its jump is in."""
    return tag_of(bodies, arm) or next(
        (tag for tag, first, last in tests if first <= jump <= last), "")


def function_tags(tree: ast.Module, bodies: list, api: set) -> dict:
    """``{name: tag}`` of the functions and methods kept when never entered:
    ``reference`` for those that only reference paths call, ``model-api`` for
    the model API, and ``raise`` for those that only ``raise`` statements call,
    for those that only raise (abstract methods) and for the methods of
    exception classes."""
    tags = {name: tag for tag in ("raise", "reference")
            for name in called_only_in(tree, bodies, tag)}
    tags.update((name, "model-api") for name in api)
    exceptions = {"Exception"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and _registered(node):
            tags[node.name] = "reference"
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) in exceptions for base in node.bases):
            exceptions.add(node.name)
            tags.update((method.name, "raise") for method in node.body
                        if isinstance(method, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            if len(body) == 1 and isinstance(body[0], ast.Raise):
                tags[node.name] = "raise"
    return tags


def called_only_in(tree: ast.Module, bodies: list, tag: str) -> set:
    """Names of the functions that only regions tagged ``tag`` (and these
    functions themselves) call."""
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    uses: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and inner.id in defined and inner.id != node.name:
                    uses.setdefault(inner.id, []).append((node.name, _place(inner)))
    found: set = set()
    while True:
        more = {name for name, places in uses.items() if name not in found and all(
            caller in found or tag_of(bodies, place) == tag for caller, place in places)}
        if not more:
            return found
        found |= more


def model_api() -> set:
    """``MODEL_API`` of ``tests/test_numerics.py``, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_numerics.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODEL_API":
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_numerics.py defines no MODEL_API")


# ---------------------------------------------------------------------------
# report


def ranges(numbers) -> str:
    """``1-3, 7`` for ``[1, 2, 3, 7]``."""
    out, numbers = [], sorted(numbers)
    for number in numbers:
        if out and out[-1][1] == number - 1:
            out[-1][1] = number
        else:
            out.append([number, number])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(path: Path, ran: dict, api: set) -> int:
    """Print the census of one source file; return its count of untagged arms."""
    tree = ast.parse(path.read_text())
    bodies, tests = regions(tree)
    kept = function_tags(tree, bodies, api)
    codes = [code for code in functions(compile(tree, str(path), "exec"))
             if code.co_flags & 1]  # functions; module and class bodies run at import
    never, lines, arms = [], {}, set()
    for code in codes:
        executed = ran.get(code, set())
        if not executed and code.co_name not in COMPREHENSIONS:
            # A nested function goes with the function it is defined in.
            outer = [tag for _, name, tag in never if code.co_qualname.startswith(name + ".")]
            tag = outer[0] if outer else kept.get(code.co_name, "")
            never.append((code.co_firstlineno, code.co_qualname, tag))
            continue
        for line in unreached_lines(code, executed):
            lines[line] = line_tag(bodies, line)
        for jump, arm in unreached_arms(code, executed):
            arms.add((arm, jump, arm_tag(bodies, tests, jump, arm)))
    # The lines of a function never entered go with it.
    for code in codes:
        if any(code.co_qualname == name or code.co_qualname.startswith(name + ".")
               for _, name, _ in never):
            for _, _, line in code.co_lines():
                lines.pop(line, None)
    untagged = sum(1 for *_, tag in arms if not tag)
    print(f"{path.name}: {len(never)} functions never entered, {len(lines)} lines never run, "
          f"{len(arms)} arms never taken ({untagged} untagged)")
    for line, name, tag in sorted(never):
        print(f"  never entered: {name} (line {line})" + (f" [{tag}]" if tag else ""))
    by_tag: dict = {}
    for line, tag in lines.items():
        by_tag.setdefault(tag, []).append(line)
    for tag in sorted(by_tag):
        print(f"  lines never run{f' [{tag}]' if tag else ''}: {ranges(by_tag[tag])}")
    for (line, column), (jump_line, jump_column), tag in sorted(arms):
        print(f"  arm never taken: {line}:{column} (jump at {jump_line}:{jump_column})"
              + (f" [{tag}]" if tag else ""))
    return untagged


# ---------------------------------------------------------------------------
# callers


def run_callers() -> None:
    """The workloads at seed 1, criteria 1-8 and the command-line runs."""
    import numpy as np
    import pytest

    import workloads
    from lagtime import cli

    for workload in workloads.WORKLOADS.values():
        workload.warm_up()
        workload.run(workload.prepare(1), workloads.Ops())
    if pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]):
        raise SystemExit("census: an acceptance criterion failed")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for system, frames in (("quadwell", "2000"), ("double-well", "200"),
                               ("rossler", "200"), ("sqrt-model", "200")):
            if cli.main(["generate", "--system", system, "--n-frames", frames, "--out", name]):
                raise SystemExit(f"census: generate --system {system} failed")
        walk = np.loadtxt(tmp / "quadwell.csv", delimiter=",", skiprows=1, ndmin=2)[:, -1]
        for i, part in enumerate(np.array_split(np.digitize(walk, [-1.0, 0.0, 1.0]), 2)):
            (tmp / f"walk{i}.txt").write_text("\n".join(map(str, part)))
        (tmp / "counts.csv").write_text("\n".join(f"{v},{v % 2}" for v in range(30)))
        walks = [str(tmp / "walk0.txt"), str(tmp / "walk1.txt")]
        for argv in (["sqrt-experiment", "--methods", "tica,kernel_edmd,backtransform",
                      "--n-frames", "200", "--n-folds", "4", "--format", "csv"],
                     ["bickley-experiment", "--methods", "kvad,vamp,kernel_cca",
                      "--n-particles", "200", "--rounds", "1", "--round-size", "100",
                      "--restarts", "3", "--t1", "2"],
                     ["sindy", "--demo-rossler", "--demo-t1", "5", "--threshold", "0.05"],
                     ["sindy", "--input", str(tmp / "double_well.csv"), "--dt", "1e-3"],
                     ["sindy", "--input", str(tmp / "counts.csv"), "--discrete",
                      "--threshold", "0.0"],
                     ["msm", "--input", *walks, "--lag", "10", "--reversible",
                      "--n-timescales", "3"],
                     ["msm", "--input", *walks, "--lag", "10", "--counting", "strided"],
                     ["benchmark", "--n-steps", "10000"]):
            if cli.main(argv + ["--out", str(tmp / argv[0])]):
                raise SystemExit(f"census: {' '.join(argv)} failed")


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    prefix = str(SRC) + "/"
    ran = record(run_callers, lambda filename: filename.startswith(prefix))
    api = model_api()
    untagged = sum(report(path, ran, api) for path in sorted(SRC.glob("*.py")))
    print(f"untagged arms never taken: {untagged}")


if __name__ == "__main__":
    main()
