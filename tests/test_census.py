"""Tests for the arm finder of ``tests/census.py``."""

import ast

import census


def traced(source, *calls):
    """The census's arm findings in ``f`` of ``source`` after ``f(*args)`` for
    each ``args`` in ``calls``."""
    namespace = {}
    exec(compile(source, "<probe>", "exec"), namespace)
    f = namespace["f"]
    ran = census.record(lambda: [f(*args) for args in calls],
                        lambda filename: filename == "<probe>")
    return census.unreached_arms(f.__code__, ran[f.__code__])


def test_unreached_arm_of_a_conditional_expression_at_its_column():
    source = "def f(x):\n    return 1 if x else 2\n"
    assert traced(source, (True,)) == [((2, 11), (2, 23))]
    assert traced(source, (False,)) == [((2, 11), (2, 11))]
    assert traced(source, (True,), (False,)) == []


def test_loop_that_never_runs_its_body():
    source = "def f(xs):\n    total = 0\n    for x in xs:\n        total += x\n    return total\n"
    # The body starts by binding the loop variable.
    assert traced(source, ([],)) == [((3, 4), (3, 8))]
    assert traced(source, ([1, 2],)) == []


def test_jump_with_an_extended_argument():
    # A jump over more than 255 code units carries an EXTENDED_ARG prefix,
    # and the tracer reports the prefix's offset, not the jump's.
    body = "\n".join(f"        y = y + {i}" for i in range(200))
    source = f"def f(x):\n    y = 0\n    if x:\n{body}\n    return y\n"
    assert traced(source, (False,)) == [((3, 4), (4, 12))]


def test_a_registered_reference_is_tagged():
    # A kernel's reference runs only without a C compiler: its body, and a
    # helper that only it calls, are kept as the reference path.
    source = ('@_kernel("k")\ndef f(a):\n    if a:\n        return h()\n    return 2\n\n'
              'def h():\n    return 1\n\ndef g(a):\n    return f(a)\n')
    tree = ast.parse(source)
    bodies, _ = census.regions(tree)
    assert census.tag_of(bodies, (4, 8)) == "reference"
    assert census.tag_of(bodies, (11, 4)) == ""
    tags = census.function_tags(tree, bodies, set())
    assert tags["f"] == tags["h"] == "reference" and "g" not in tags


def test_the_build_on_a_cache_miss_is_tagged():
    # Whether the build runs depends on the kernel cache, not on the callers:
    # on a warm cache its arm is never taken, and it is kept.
    source = ('def _build_kernels():\n    pass\n\n'
              'def f(miss):\n    if miss:\n        _build_kernels()\n    return 1\n')
    bodies, tests = census.regions(ast.parse(source))
    [(jump, arm)] = traced(source, (False,))
    assert arm == (6, 8) and census.arm_tag(bodies, tests, jump, arm) == "cache"
    assert census.tag_of(bodies, (7, 4)) == ""
