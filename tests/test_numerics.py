import ast
import ctypes
import functools
import inspect
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lagtime
from lagtime import _native
from lagtime.basis import (
    IdentityFeatures,
    IndicatorFeatures,
    MonomialFeatures,
    RandomFeatureNet,
    indicator_features,
)
from lagtime.clustering import kmeans_fit
from lagtime.covariance import (
    CovarianceAccumulator, covariances_from_pairs, estimate_covariances, lagged_pairs,
)
from lagtime.datasets import (
    SdeSystem,
    benchmark_steps_per_second,
    bickley_flow,
    double_well_2d,
    euler_maruyama,
    quadwell_1d,
    quadwell_system,
    rossler,
    sample_sqrt_model,
)
from lagtime.decomposition import (
    contiguous_folds,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    vamp_fit,
    vamp_score,
)
from lagtime.errors import DegenerateInput, InvalidArgument
from lagtime.experiments import run_bickley_experiment, run_sqrt_experiment
from lagtime.hmm import GaussianOutputModel, HiddenMarkovModel, baum_welch, init_from_msm
from lagtime.kernels import GaussianKernel
from lagtime.markov import (
    MarkovStateModel,
    coherence_score,
    count_transitions,
    sample_markov_chain,
    spectral_analysis,
    timescales,
)
from lagtime.numerics import (
    SpectralDecomposition,
    WhiteningTransform,
    _checked,
    generalized_eig_sym,
    sym_inverse_sqrt,
    truncated_svd,
)
from lagtime.sindy import finite_difference, sindy_fit, sindy_simulate, stlsq
from lagtime.numerics import pinv_truncated


def random_spd(rng, dim, min_eval=0.1, max_eval=3.0):
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = rng.uniform(min_eval, max_eval, dim)
    return (Q * evals) @ Q.T


class TestSymInverseSqrt:
    def test_identity(self):
        white = sym_inverse_sqrt(np.eye(3))
        np.testing.assert_allclose(white.transform, np.eye(3), atol=1e-12)
        assert white.rank == 3

    def test_whitens_spd_matrix(self):
        rng = np.random.default_rng(0)
        C = random_spd(rng, 5)
        white = sym_inverse_sqrt(C)
        np.testing.assert_allclose(
            white.transform @ C @ white.transform.T, np.eye(5), atol=1e-10
        )

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 8))
    def test_whitening_property(self, seed, dim):
        rng = np.random.default_rng(seed)
        C = random_spd(rng, dim)
        white = sym_inverse_sqrt(C, epsilon=1e-10)
        assert white.rank == dim
        np.testing.assert_allclose(
            white.transform @ C @ white.transform.T, np.eye(dim), atol=1e-8
        )

    def test_rank_truncation(self):
        C = np.diag([2.0, 1.0, 1e-15])
        white = sym_inverse_sqrt(C, epsilon=1e-12)
        assert white.rank == 2
        assert white.transform.shape == (2, 3)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateInput):
            sym_inverse_sqrt(np.zeros((3, 3)))
        with pytest.raises(DegenerateInput):
            sym_inverse_sqrt(np.zeros((0, 0)))

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidArgument):
            sym_inverse_sqrt(M)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgument):
            sym_inverse_sqrt(np.ones((2, 3)))

    def test_apply_subtracts_mean(self):
        transform = np.array([[2.0, 0.0], [0.0, 1.0]])
        white = WhiteningTransform(transform=transform, mean=np.array([1.0, -1.0]), rank=2)
        out = white.apply(np.array([[1.0, -1.0], [2.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0], [2.0, 1.0]])


class TestGeneralizedEigSym:
    def test_reduces_to_ordinary_for_identity_b(self):
        rng = np.random.default_rng(1)
        A = random_spd(rng, 4)
        dec = generalized_eig_sym(A, np.eye(4))
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        np.testing.assert_allclose(dec.eigenvalues, ref, atol=1e-10)

    def test_solves_pencil(self):
        rng = np.random.default_rng(2)
        A = random_spd(rng, 5)
        B = random_spd(rng, 5)
        dec = generalized_eig_sym(A, B)
        for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T):
            np.testing.assert_allclose(A @ v, lam * B @ v, atol=1e-8)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(3)
        A = random_spd(rng, 6)
        B = random_spd(rng, 6)
        dec = generalized_eig_sym(A, B)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_eigenvectors_are_b_orthonormal(self):
        rng = np.random.default_rng(6)
        A = random_spd(rng, 5)
        B = random_spd(rng, 5)
        V = generalized_eig_sym(A, B).eigenvectors
        np.testing.assert_allclose(V.T @ B @ V, np.eye(5), atol=1e-10)

    def test_degenerate_b_raises(self):
        with pytest.raises(DegenerateInput):
            generalized_eig_sym(np.eye(2), np.zeros((2, 2)))


class TestTruncatedSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((6, 4))
        U, s, V = truncated_svd(M)
        np.testing.assert_allclose(U @ np.diag(s) @ V.T, M, atol=1e-10)

    def test_truncation_shapes(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 4))
        U, s, V = truncated_svd(M, k=2)
        assert U.shape == (6, 2) and s.shape == (2,) and V.shape == (4, 2)
        assert s[0] >= s[1] >= 0

    def test_invalid_k(self):
        with pytest.raises(InvalidArgument):
            truncated_svd(np.eye(3), k=4)
        with pytest.raises(InvalidArgument):
            truncated_svd(np.eye(3), k=0)

    def test_vector_rejected(self):
        with pytest.raises(InvalidArgument):
            truncated_svd(np.arange(3.0))


class TestPinvTruncated:
    def test_matches_numpy_on_full_rank(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 3))
        np.testing.assert_allclose(pinv_truncated(M), np.linalg.pinv(M), atol=1e-10)

    def test_rank_deficient(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        P = pinv_truncated(M)
        np.testing.assert_allclose(P, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 6))
        P = pinv_truncated(M)
        np.testing.assert_allclose(M @ P @ M, M, atol=1e-10)
        np.testing.assert_allclose(P @ M @ P, P, atol=1e-10)


def test_spectral_decomposition_holds_fields():
    dec = SpectralDecomposition(
        eigenvalues=np.array([1.0]), eigenvectors=np.eye(1)
    )
    assert dec.left_eigenvectors is None


def column_idioms(path):
    """(enclosing top-level name, line) of each ``if X.ndim == 1: X = X[:, None]``."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.If) and ast.unparse(node.test).endswith(".ndim == 1")
                    and "[:, None]" in ast.unparse(node)):
                yield getattr(top, "name", None), node.lineno


def test_frame_convention_is_written_once():
    # numerics._as_frames holds the rule; datasets.Trajectory keeps its own
    # because a non-finite frame there is a divergence, not a bad argument.
    allowed = {("numerics.py", "_as_frames"), ("datasets.py", "Trajectory")}
    src = Path(lagtime.__file__).parent
    copies = [
        f"{path.name}:{line} ({owner})"
        for path in sorted(src.glob("*.py"))
        for owner, line in column_idioms(path)
        if (path.name, owner) not in allowed
    ]
    assert not copies, copies


def imported_modules(path):
    """Each module a source file imports, by its full name; ``lagtime.x`` for
    a relative import of ``x``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "lagtime" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_native_code_is_loaded_in_one_module():
    # _native builds, caches and loads _kernels.c; the estimators reach it
    # directly, and only the user-facing layers reach the dataset module.
    src = Path(lagtime.__file__).parent
    imports = {path.name: set(imported_modules(path)) for path in sorted(src.glob("*.py"))}
    for name in ("ctypes", "subprocess", "tempfile"):
        users = [f for f, found in imports.items() if name in {m.split(".")[0] for m in found}]
        assert users == ["_native.py"], name
    importers = sorted(f for f, found in imports.items() if "lagtime.datasets" in found)
    assert importers == ["__init__.py", "cli.py", "experiments.py"]


def c_type(ctypes_type):
    """The C type that an ``argtypes`` entry or a ``restype`` passes."""
    if ctypes_type is None:
        return "void"
    dtype = getattr(ctypes_type, "_dtype_", None)  # an ndpointer
    if dtype is not None:
        return {np.dtype(np.float64): "double *", np.dtype(np.int64): "int64_t *"}[dtype]
    return {ctypes.c_long: "long", ctypes.c_double: "double"}[ctypes_type]


def prototype_type(declaration):
    """``const double *noise`` -> ``double *``; ``long n`` -> ``long``."""
    base, pointer = re.fullmatch(r"(?:const )?(\w+) (\*?)\s*\w+", " ".join(declaration.split())
                                 ).groups()
    return f"{base} {pointer}".strip()


def test_ctypes_signatures_match_the_c_prototypes(monkeypatch):
    # ctypes checks a call against argtypes only: a row with a wrong argument
    # count, order or kind makes the kernel read garbage without any error.
    # Each kernel's reference takes the same arguments where no library loads.
    source = _native._KERNEL_SOURCE.read_text()
    exported = re.findall(r"^(long|void|double|int) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in exported} >= {"jet_rk4_steps", "kmeans_lloyd"}
    assert len(exported) >= 9
    registered = [name for name, _ in _native._KERNELS]
    assert sorted(registered) == sorted(name for _, name, _ in exported)
    references = dict(_native._KERNELS)
    for _, name, parameters in exported:
        arguments = len(parameters.split(","))
        assert len(inspect.signature(references[name]).parameters) == arguments, name
    if shutil.which("cc") is None:
        return
    library, backend = _native._compiled_kernels()
    assert backend == "c"
    for returns, name, parameters in exported:
        function = getattr(library, name)
        assert function.argtypes is not None, f"{name} has no row in the argtypes table"
        declared = [prototype_type(p) for p in parameters.split(",")]
        assert [c_type(t) for t in function.argtypes] == declared, name
        assert c_type(function.restype) == returns, name
    # Where the library loads, the function registered for a kernel calls it.
    callers = {function.__wrapped__: function for module in vars(lagtime).values()
               if inspect.ismodule(module) for function in vars(module).values()
               if getattr(function, "__wrapped__", None) in references.values()}
    for _, name, parameters in exported:
        arguments, calls = tuple(range(len(parameters.split(",")))), []
        monkeypatch.setattr(library, name, lambda *args, calls=calls: calls.append(args))
        callers[references[name]](*arguments)
        assert calls == [arguments], name


def test_kernel_build_flags_keep_ieee_arithmetic():
    # The steppers, the Roessler frames, the Viterbi paths, the chain states
    # and the Lloyd loop match their references bit for bit only while the
    # compiler neither contracts into fused multiply-adds nor reassociates.
    # A -march build runs only where the machine matches the one that built
    # it, and the cached build's name does not record the machine.
    flags = _native._KERNEL_FLAGS
    assert "-ffp-contract=off" in flags
    forbidden = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                 "-fassociative-math", "-march=")
    assert [flag for flag in flags if any(bad in flag for bad in forbidden)] == []


# Public names that only their own tests call, kept as the documented model
# API: the potential the four-well drift is the gradient of, the integrator of
# user-defined SDE systems (its loop is also the shipped steppers' reference),
# the operator models' forward prediction and backward singular functions,
# and the scoring, persistence and simulation entry points.
MODEL_API = {"quadwell_potential", "euler_maruyama", "propagate", "backward", "kvad_score",
             "save_model", "load_model", "sindy_simulate", "sindy_score"}


def class_hierarchy(src):
    """(bases, returns) of the package: the base-class names of each class,
    and the class named by the return annotation of each function (by name)
    and method (by ``Class.method``) that has one."""
    bases, annotated = {}, {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            functions = [("", node)]
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(base, "id", getattr(base, "attr", None))
                                    for base in node.bases}
                functions = [(f"{node.name}.", method) for method in node.body]
            for prefix, function in functions:
                if isinstance(function, ast.FunctionDef) and function.returns is not None:
                    returned = function.returns
                    annotated[prefix + function.name] = getattr(returned, "id", None) or (
                        returned.value if isinstance(returned, ast.Constant) else None)
    return bases, {name: cls for name, cls in annotated.items() if cls in bases}


def lineage(cls, bases):
    """``cls`` and every package class it derives from."""
    found, todo = set(), [cls]
    while todo:
        name = todo.pop()
        if name in bases and name not in found:
            found.add(name)
            todo.extend(bases[name])
    return found


def subclasses(cls, bases):
    """``cls`` and every package class derived from it: what an instance
    declared as ``cls`` may be."""
    return {name for name in bases if cls in lineage(name, bases)}


def scope_nodes(scope):
    """The nodes of one scope: everything below it except the bodies of the
    functions, lambdas and classes it defines, which are scopes of their own."""
    todo = [value for field, value in ast.iter_fields(scope) if field == "body"]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo.extend(item)
        elif isinstance(item, ast.AST):
            yield item
            own_scope = isinstance(item, (ast.FunctionDef, ast.Lambda, ast.ClassDef))
            todo.extend(value for field, value in ast.iter_fields(item)
                        if not (own_scope and field == "body"))


def references(path, src, bases, returns):
    """(names, members) that a source file refers to. ``names`` holds bare
    names and attributes of an imported module. ``members`` holds every other
    attribute, which is how a method or property is reached, as (attribute,
    classes): the package classes the receiver may be an instance of, or None
    when the AST does not tell. It tells for ``self`` inside a class (that
    class or a subclass), for a constructor call (that class), and for a call,
    or a name every binding of which in its scope is a call, of a function
    whose return annotation names a class (that class or a subclass). A class
    outside the package is none of the package's, whatever its name."""
    tree = ast.parse(path.read_text())
    modules = {module.stem for module in src.glob("*.py")}
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name in modules)

    def produced(call):
        function = call.func
        if getattr(function, "attr", None) == "call" and call.args:  # ops.call(fn, ...)
            function = call.args[0]
        owner = getattr(getattr(function, "value", None), "id", None)
        if isinstance(function, ast.Attribute) and owner in bases:
            name = f"{owner}.{function.attr}"
        elif isinstance(function, ast.Name) or owner in aliases:
            name = getattr(function, "id", None) or function.attr
            if name in bases:
                return {name}
        else:
            return None
        return subclasses(returns[name], bases) if name in returns else None

    names, members = set(), []

    def visit(scope, own_class):
        nodes = list(scope_nodes(scope))
        values = {}  # the value each assignment target is bound to
        for statement in nodes:
            if isinstance(statement, ast.Assign):
                values.update((id(target), statement.value) for target in statement.targets)
            elif isinstance(statement, (ast.AnnAssign, ast.NamedExpr)):
                values[id(statement.target)] = statement.value
        bound = {}

        def bind(name, value):
            classes = produced(value) if isinstance(value, ast.Call) else None
            known = bound.get(name, set())
            bound[name] = None if classes is None or known is None else known | classes

        if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
            arguments = scope.args
            for argument in (arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None:
                    bind(argument.arg, None)
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bind(node.id, values.get(id(node)))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.ExceptHandler)):
                bind(node.name, None)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bind(alias.asname or alias.name.split(".")[0], None)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                for name in node.names:
                    bind(name, None)
        for node in nodes:
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                receiver = node.value
                if isinstance(receiver, ast.Name) and receiver.id in aliases:
                    names.add(node.attr)
                    continue
                classes = None
                if isinstance(receiver, ast.Call):
                    classes = produced(receiver)
                elif isinstance(receiver, ast.Name) and receiver.id == "self" and own_class:
                    classes = subclasses(own_class, bases)
                elif isinstance(receiver, ast.Name):
                    classes = bound.get(receiver.id)
                members.append((node.attr, classes))
            if isinstance(node, ast.ClassDef):
                visit(node, node.name if path.parent == src else None)
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                method = isinstance(scope, ast.ClassDef) and isinstance(node, ast.FunctionDef)
                first = node.args.args[0].arg if node.args.args else None
                visit(node, (own_class if first == "self" else None) if method else own_class)

    visit(tree, None)
    return names, members


def public_definitions(path):
    """(label, name, owner, node) of each public top-level function and class
    of a source file, and of each public method of those classes; ``owner`` is
    the class that defines a method, None otherwise."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.name}:{node.name}", node.name, None, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield (f"{path.name}:{node.name}.{method.name}", method.name, node.name,
                               method)


def caller_files():
    """(path, scope) of the package (whose __init__ and __all__ only
    re-export), the benchmark and the acceptance suite: the code that uses the
    package for real. ``scope`` is None for a file that may call anything.
    Persistence calls only the names it defines: its decoders pass every
    constructor argument back in and its kind tables name every class, so it
    would otherwise keep alive whatever it can save."""
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "lagtime"
    callers = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    return src, [(path, {name for _, name, _, _ in public_definitions(path)}
                  if path.name == "serialization.py" else None) for path in callers]


def test_every_public_name_has_a_caller_besides_its_tests():
    # A name that only its own tests call is code to delete. A method is
    # called when a caller reads it on a receiver that may be an instance of
    # its class or of a subclass; a receiver of unknown class may be any.
    src, callers = caller_files()
    bases, returns = class_hierarchy(src)
    names, receivers = set(), {}
    for path, scope in callers:
        found_names, found_members = references(path, src, bases, returns)
        if scope is not None:
            found_names &= scope
        names |= found_names
        for attribute, classes in found_members:
            if scope is None or attribute in scope:
                receivers.setdefault(attribute, []).append(classes)

    def called(name, owner):
        if owner is None:
            return name in names
        return any(classes is None or any(owner in lineage(cls, bases) for cls in classes)
                   for classes in receivers.get(name, ()))

    uncalled = [(label, name) for path in sorted(src.glob("*.py"))
                for label, name, owner, _ in public_definitions(path)
                if not called(name, owner)]
    unlisted = [label for label, name in uncalled if name not in MODEL_API]
    assert not unlisted, unlisted
    # An entry that gained a caller leaves the list.
    assert {name for _, name in uncalled} == MODEL_API


# Defaulted parameters that no caller sets, kept for a reason.
PARAMETER_ALLOW = {
    # The console entry point: the interpreter calls it, with sys.argv.
    "cli.py:main.argv",
    # The benchmark passes its default, r=2, by keyword.
    "decomposition.py:vamp_score_cv.r",
}


def dataclass_fields(node):
    """(name, default) of each ``__init__`` field of a ``@dataclass`` class,
    in order, with default None for a required field; nothing for any other
    class. A ``field(default=...)`` defaults to its ``default``."""
    if not any(getattr(decorator, "id", None) == "dataclass"
               or getattr(getattr(decorator, "func", None), "id", None) == "dataclass"
               for decorator in node.decorator_list):
        return
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            default = statement.value
            if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
                default = next((keyword.value for keyword in default.keywords
                                if keyword.arg == "default"), None)
            yield statement.target.id, default


def defaulted_parameters(path):
    """(label, called_as, position, name, default) of each defaulted parameter
    of a public function, public method or constructor (a public class's
    ``__init__``, or its dataclass fields, called by the class name) of a
    source file. ``position`` counts from the first argument a caller writes;
    keyword-only parameters have none."""
    for label, called_as, owner, node in public_definitions(path):
        if isinstance(node, ast.ClassDef):
            for position, (name, default) in enumerate(dataclass_fields(node)):
                if default is not None:
                    yield f"{label}.{name}", called_as, position, name, ast.dump(default)
            node = next((method for method in node.body if isinstance(method, ast.FunctionDef)
                         and method.name == "__init__"), None)
            if node is None:
                continue
            bound = True
        else:
            bound = owner is not None and not any(getattr(decorator, "id", None) == "staticmethod"
                                          for decorator in node.decorator_list)
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        for index, default in enumerate(arguments.defaults, start=first):
            yield (f"{label}.{positional[index].arg}", called_as, index - bound,
                   positional[index].arg, ast.dump(default))
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                yield f"{label}.{argument.arg}", called_as, None, argument.arg, ast.dump(default)


def parameter_settings(path):
    """(called_as, position or keyword, value) of each argument a source file
    passes, with value None for a splat, which may pass anything. The
    benchmark's ``ops.call(fn, *args, **kw)`` is a call of ``fn``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        function, arguments = node.func, node.args
        if (isinstance(function, ast.Attribute) and function.attr == "call" and arguments
                and not isinstance(arguments[0], ast.Starred)):
            function, arguments = arguments[0], arguments[1:]
        called_as = getattr(function, "id", None) or getattr(function, "attr", None)
        for position, argument in enumerate(arguments):
            splat = isinstance(argument, ast.Starred)
            yield called_as, None if splat else position, None if splat else ast.dump(argument)
        for keyword in node.keywords:
            value = None if keyword.arg is None else ast.dump(keyword.value)
            yield called_as, keyword.arg, value


def test_every_parameter_has_a_caller_that_sets_it():
    # A defaulted parameter that no caller sets to anything but its default
    # is an option with one value: a constant, and often a branch, to delete.
    src, callers = caller_files()
    passed = {}
    for path, scope in callers:
        for called_as, where, value in parameter_settings(path):
            if scope is None or called_as in scope:
                passed.setdefault(called_as, []).append((where, value))
    unset = []
    for path in sorted(src.glob("*.py")):
        for label, called_as, position, name, default in defaulted_parameters(path):
            if called_as in MODEL_API:
                continue
            if not any(value is None or (where in (position, name) and value != default)
                       for where, value in passed.get(called_as, ())):
                unset.append(label)
    unlisted = [label for label in unset if label not in PARAMETER_ALLOW]
    assert not unlisted, unlisted
    # An entry that gained a caller leaves the list.
    assert set(unset) == PARAMETER_ALLOW


def unused_imports(path):
    """(line, name) of each name a source file imports and never references."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # __init__.py imports to re-export.
    src = Path(lagtime.__file__).parent
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
              for line, name in unused_imports(path)]
    assert not unused, unused


def _hmm():
    return HiddenMarkovModel(
        transition_model=MarkovStateModel(np.array([[0.9, 0.1], [0.2, 0.8]])),
        output_model=GaussianOutputModel(means=[0.0, 1.0], stds=[1.0, 1.0]),
        initial_distribution=np.array([0.5, 0.5]),
    )


SEEDED_CALLS = {
    "double_well_2d": lambda seed: double_well_2d(seed=seed, n_frames=3),
    "quadwell_1d": lambda seed: quadwell_1d(seed=seed, n_frames=3),
    "euler_maruyama": lambda seed: euler_maruyama(
        SdeSystem(dimension=1, drift=lambda t, x: -x, diffusion=np.eye(1), step=0.1),
        np.zeros(1), n_frames=3, seed=seed),
    "sample_sqrt_model": lambda seed: sample_sqrt_model(5, seed=seed),
    "RandomFeatureNet": lambda seed: RandomFeatureNet(2, seed=seed),
    "kmeans_fit": lambda seed: kmeans_fit(np.arange(6.0), 2, seed=seed),
    "sample_markov_chain": lambda seed: sample_markov_chain(np.eye(2), 5, seed=seed),
    "HiddenMarkovModel.sample": lambda seed: _hmm().sample(5, seed=seed),
    "run_sqrt_experiment": lambda seed: run_sqrt_experiment(("tica",), n_frames=20, seed=seed),
    "run_bickley_experiment": lambda seed: run_bickley_experiment(
        ("vamp",), n_particles=4, n_sets=2, rounds=1, round_size=4, t1=0.1, seed=seed),
}


@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_negative_seed_is_an_invalid_argument(name):
    # numpy's own ValueError would not say which argument was wrong.
    with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
        SEEDED_CALLS[name](-1)


@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_fractional_seed_is_an_invalid_argument(name):
    with pytest.raises(InvalidArgument, match=r"^seed must be an integer, got 1\.5$"):
        SEEDED_CALLS[name](1.5)


def test_lapack_seam_gives_the_bytes_of_scipys_wrappers():
    rng = np.random.default_rng(55)
    A = rng.standard_normal((300, 300))
    H = A @ A.T + 300 * np.eye(300)
    L = np.asfortranarray(H)
    assert _native._dpotrf(L) == 0
    factor = scipy.linalg.cholesky(H, lower=True)
    np.testing.assert_array_equal(np.tril(L), factor)
    # info names the first leading minor that is not positive definite.
    assert _native._dpotrf(np.asfortranarray(-H)) == 1


@functools.cache
def _pairs():
    X = np.random.default_rng(8).normal(size=(30, 2))
    return X, X + 0.1 * np.random.default_rng(9).normal(size=(30, 2))


def _vamp_model():
    return vamp_fit(covariances_from_pairs(*_pairs()))


def _two_state_msm():
    return MarkovStateModel(np.array([[0.9, 0.1], [0.2, 0.8]]))


def _sde(step=0.1, n_substeps=1):
    return SdeSystem(dimension=1, drift=lambda t, x: -x, diffusion=np.eye(1), step=step,
                     n_substeps=n_substeps)


def _discrete_sindy_model():
    return sindy_fit(np.arange(10.0), library=MonomialFeatures(1, 1), discrete_time=True)


# One row per scalar parameter: the name its message must give, a call that
# passes the value to it, and a finite value outside its range (None when
# every finite value is allowed). NaN and both infinities are tried on all.
CHECKED_PARAMETERS = [
    ("IdentityFeatures", "dim", lambda v: IdentityFeatures(v), (0, 2.5)),
    ("MonomialFeatures", "dim", lambda v: MonomialFeatures(v, 2), (0, 2.5)),
    ("MonomialFeatures", "max_degree", lambda v: MonomialFeatures(1, v), (-1, 2.5)),
    ("IndicatorFeatures", "n_states", lambda v: IndicatorFeatures(v), (0, 2.5)),
    ("indicator_features", "n_states", lambda v: indicator_features([0], v), (0, 2.5)),
    ("RandomFeatureNet", "dim_in", lambda v: RandomFeatureNet(v), (0, 2.5)),
    ("kmeans_fit", "n_clusters", lambda v: kmeans_fit(np.arange(6.0), v), (0, 2.5)),
    ("kmeans_fit", "n_restarts", lambda v: kmeans_fit(np.arange(6.0), 2, n_restarts=v), (0, 2.5)),
    ("kmeans_fit", "max_iter", lambda v: kmeans_fit(np.arange(6.0), 2, max_iter=v), (-5, 2.5)),
    ("kmeans_fit", "tol", lambda v: kmeans_fit(np.arange(6.0), 2, tol=v), -1.0),
    ("lagged_pairs", "lag", lambda v: lagged_pairs(np.arange(6.0), v), (0, 2.5)),
    ("estimate_covariances", "lag", lambda v: estimate_covariances(np.arange(6.0), v), (0, 1.5)),
    ("estimate_covariances", "chunk_size",
     lambda v: estimate_covariances(np.arange(6.0), 1, chunk_size=v), (0, 2.5)),
    ("CovarianceAccumulator", "dim", lambda v: CovarianceAccumulator(v), (0, 2.5)),
    ("SdeSystem", "step", lambda v: _sde(step=v), 0.0),
    ("SdeSystem", "n_substeps", lambda v: _sde(n_substeps=v), (0, 2.5)),
    ("quadwell_1d", "h", lambda v: quadwell_1d(n_frames=3, h=v), -1e-3),
    ("quadwell_1d", "n_frames", lambda v: quadwell_1d(n_frames=v), (0, 3.5)),
    ("quadwell_1d", "n_substeps", lambda v: quadwell_1d(n_frames=3, n_substeps=v), (0, 2.5)),
    ("quadwell_system", "h", lambda v: quadwell_system(h=v), 0.0),
    ("euler_maruyama", "n_frames", lambda v: euler_maruyama(_sde(), np.zeros(1), v), (0, 2.5)),
    ("sample_sqrt_model", "n_frames", lambda v: sample_sqrt_model(v), (0, 2.5)),
    ("benchmark_steps_per_second", "n_steps", lambda v: benchmark_steps_per_second(v),
     (0, 2.5)),
    ("bickley_flow", "t0", lambda v: bickley_flow(np.zeros((1, 2)), v, 1.0), None),
    ("bickley_flow", "t1", lambda v: bickley_flow(np.zeros((1, 2)), 0.0, v), None),
    ("bickley_flow", "dt", lambda v: bickley_flow(np.zeros((1, 2)), 0.0, 1.0, v), 0.0),
    ("rossler", "t1", lambda v: rossler(t1=v), 0.0),
    ("rossler", "dt", lambda v: rossler(dt=v), -1e-3),
    ("TransferOperatorModel.project", "n_components", lambda v: kernel_edmd_fit(
        *_pairs(), GaussianKernel(1.0), epsilon=1e-6, n_components=2).project(_pairs()[0], v),
     (0, 2.5)),
    ("CovarianceKoopmanModel.project", "n_components",
     lambda v: _vamp_model().project(_pairs()[0], v), (3, 2.5)),
    ("KVADModel.project", "n_components", lambda v: kvad_fit(
        *_pairs(), IdentityFeatures(2), GaussianKernel(1.0)).project(_pairs()[0], v), (0, 2.5)),
    ("vamp_fit", "n_components", lambda v: vamp_fit(covariances_from_pairs(*_pairs()), v),
     (0, 2.5)),
    ("vamp_fit", "epsilon",
     lambda v: vamp_fit(covariances_from_pairs(*_pairs()), epsilon=v), -1.0),
    ("sym_inverse_sqrt", "epsilon", lambda v: sym_inverse_sqrt(np.eye(2), v), -1.0),
    ("vamp_score", "r", lambda v: vamp_score(_vamp_model(), r=v), None),
    ("contiguous_folds", "n_folds", lambda v: contiguous_folds(10, v), (1, 2.5)),
    ("kernel_edmd_fit", "epsilon", lambda v: kernel_edmd_fit(
        *_pairs(), GaussianKernel(1.0), epsilon=v, n_components=2), -1.0),
    ("kernel_edmd_fit", "n_components", lambda v: kernel_edmd_fit(
        *_pairs(), GaussianKernel(1.0), epsilon=1e-6, n_components=v), (0, 2.5)),
    ("kernel_cca_fit", "epsilon", lambda v: kernel_cca_fit(
        *_pairs(), GaussianKernel(1.0), n_components=2, epsilon=v), 0.0),
    ("kernel_cca_fit", "n_components", lambda v: kernel_cca_fit(
        *_pairs(), GaussianKernel(1.0), n_components=v, epsilon=1e-3), (31, 2.5)),
    *[("run_bickley_experiment", name, lambda v, name=name: run_bickley_experiment(
        ("vamp",), **{name: v}), bad) for name, bad in [
            ("n_sets", (1, 2.5)), ("n_particles", (8, 8.5)), ("restarts", (0, 2.5)),
            ("rounds", (0, 2.5)), ("round_size", (0, 2.5)), ("noise", -0.1)]],
    ("init_from_msm", "n_hidden", lambda v: init_from_msm([0, 1, 0, 1], v), (0, 2.5)),
    ("HiddenMarkovModel.sample", "length", lambda v: _hmm().sample(v, seed=0), (0, 2.5)),
    ("baum_welch", "max_iter", lambda v: baum_welch(_hmm(), np.zeros(5), max_iter=v), (-1, 2.5)),
    ("baum_welch", "tolerance", lambda v: baum_welch(_hmm(), np.zeros(5), tolerance=v), -1.0),
    ("GaussianOutputModel", "means", lambda v: GaussianOutputModel([0.0, v], [1.0, 1.0]), None),
    ("GaussianOutputModel", "stds", lambda v: GaussianOutputModel([0.0, 1.0], [v, 1.0]), 0.0),
    ("GaussianKernel", "sigma", lambda v: GaussianKernel(v), 0.0),
    ("count_transitions", "lag", lambda v: count_transitions([0, 1, 0], v), (0, 2.5)),
    ("spectral_analysis", "n_components", lambda v: spectral_analysis(_two_state_msm(), v),
     (3, 2.5)),
    ("timescales", "n_timescales", lambda v: timescales(_two_state_msm(), v), (2, 2.5)),
    ("coherence_score", "n_sets", lambda v: coherence_score([0], [0], v), (0, 2.5)),
    ("sample_markov_chain", "length", lambda v: sample_markov_chain(np.eye(2), v, seed=0),
     (0, 2.5)),
    ("truncated_svd", "k", lambda v: truncated_svd(np.eye(3), v), (4, 2.5)),
    ("finite_difference", "dt", lambda v: finite_difference(np.arange(5.0), v), 0.0),
    ("stlsq", "threshold", lambda v: stlsq(np.ones((5, 2)), np.ones(5), v), -1.0),
    ("sindy_fit", "t", lambda v: sindy_fit(np.arange(5.0), t=v, library=MonomialFeatures(1, 1)),
     0.0),
    ("sindy_simulate", "t", lambda v: sindy_simulate(_discrete_sindy_model(), [0.0], v),
     (0, 2.5)),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{where}-{name}={value}")
    for where, name, call, bad in CHECKED_PARAMETERS
    for value in (np.nan, np.inf, -np.inf, *(bad if isinstance(bad, tuple) else [bad]))
    if value is not None
])
def test_each_scalar_parameter_rejects_non_finite_and_out_of_range_values(call, name, value):
    with pytest.raises(InvalidArgument) as caught:
        call(value)
    message = str(caught.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value}"), message


@pytest.mark.parametrize("value, low, high, open_low, rule", [
    (0, 1, math.inf, False, ">= 1"),
    (0.0, 0, math.inf, True, "> 0"),
    (5, 1, 3, False, "in 1..3"),
    (np.nan, 1, 3, False, "finite and in 1..3"),
    (-np.inf, 0, math.inf, False, "finite and >= 0"),
    (np.inf, -math.inf, math.inf, False, "finite"),
])
def test_checked_states_the_rule_that_failed(value, low, high, open_low, rule):
    with pytest.raises(InvalidArgument, match=re.escape(f"x must be {rule}, got {value}")):
        _checked("x", value, low, high, open_low=open_low)


@pytest.mark.parametrize("value, low, high, open_low", [
    (0, 0, math.inf, False), (1e-300, 0, math.inf, True), (3, 1, 3, False),
    (np.int64(2), 1, 3, False), (-1e308, -math.inf, math.inf, False), (10**400, 1, math.inf, False),
])
def test_checked_returns_allowed_values_unchanged(value, low, high, open_low):
    assert _checked("x", value, low, high, open_low=open_low) is value
