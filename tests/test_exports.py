"""The package's public names: every export resolves, no module keeps memo
state of its own, only the verifier runner builds a CheckReport, mod-p
reduction stays inside the one runner `reps.residue_first`, the only code
that catches `DivisionByZeroError` to choose a field, only the fields'
sparse kernels prune a cancelled entry from a sparse vector (`_add_into`
for the Scalar and int sums of every `Combination` too, and
`FieldContext.combination_product` for the products of Scalar ones), only
cyclo calls the integer product and normalization of Q(zeta_N), linalg
reads only the field kernel `axpy`, `neg`, `inverse` and `one` off the
field it holds, tops, radical layers, socles and syzygy covers share the
one Hom solver `reps.hom_from_simple` (`socle_multiplicities` and
`_socle_sweep` are its only callers), only the Hom solvers and the block
structure take a `nullspace_basis` kernel (`radical` and `sub_rep` are test
oracles, not package code), only `AlgebraContext.cached` touches the memo,
the regular-module decomposition has one mode and no brute-force rank
(`test_regular_decomposition_has_one_mode`), every tensor verdict comes from
`moncat.decompose` with no graded-character peel
(`test_tensor_verdicts_have_one_decision_procedure`), and the command line has one
output path (`test_cli_has_one_output_path`:
only `cli._render` dumps JSON or builds a CSV writer, only `cli.main` writes
to stdout or opens the `--out` file), and nothing in the package samples
(`test_no_statement_samples`: no module imports `random`, and no function
takes a seed)."""

import ast
import importlib
import pathlib
import pkgutil

import uqsl2


def test_all_names_resolve():
    assert len(set(uqsl2.__all__)) == len(uqsl2.__all__)
    for name in uqsl2.__all__:
        assert hasattr(uqsl2, name), name


def test_star_import():
    namespace = {}
    exec("from uqsl2 import *", namespace)
    assert set(uqsl2.__all__) <= set(namespace)


def test_no_module_level_caches():
    for info in pkgutil.iter_modules(uqsl2.__path__):
        module = importlib.import_module(f"uqsl2.{info.name}")
        cached = [name for name in vars(module) if name.endswith("_CACHE")]
        assert not cached, (info.name, cached)


def _call_name(node: ast.Call) -> str | None:
    """Dotted name of the called function, e.g. "CheckReport", "time.time"."""
    parts = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(func.id)
    return ".".join(reversed(parts))


def _calls(tree: ast.AST) -> list[str]:
    """Dotted names of every call in a module."""
    return [name for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (name := _call_name(node))]


def _sampling_uses(tree: ast.AST) -> list[str]:
    """Every import of `random` and every function parameter named seed."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            out.append(f"from {node.module} import")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            out += [f"seed parameter of {getattr(node, 'name', 'lambda')}"
                    for a in params if a.arg == "seed"]
    return out


def test_no_statement_samples():
    """Every statement is decided, none sampled: no module imports `random`
    and no function takes a seed.  `verify --seed` is parsed and echoed
    only, so it is an argparse option, not a parameter."""
    package = pathlib.Path(uqsl2.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert not _sampling_uses(ast.parse(path.read_text(encoding="utf-8"))), path.name
    assert _sampling_uses(ast.parse("import random\ndef f(x, seed=0): pass")) == [
        "import random", "seed parameter of f"
    ]


def test_reports_come_from_the_runner():
    package = pathlib.Path(uqsl2.__file__).parent
    for path in sorted(package.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(encoding="utf-8")))
        assert "time.time" not in calls, path.name
        if path.name != "report.py":
            assert not [c for c in calls if c.split(".")[-1] == "CheckReport"], path.name


# Names that reach the residue field F_p: its classes, the accessor that
# builds it, and the Representation helper that reduces a module to it.
RESIDUE_NAMES = frozenset({"Residue", "ResidueField", "residue_field", "mod_p"})
# Where they may appear: cyclo defines them (the F_p bodies), the helper
# uses them, and so does the one "F_p first, exact fallback" runner that the
# tops of the cover case and the projective counts of `decompose` go
# through.  Every other verdict reads the runner's result.
RESIDUE_SCOPES = {"cyclo.py": None, "reps.py": ("Representation.mod_p", "residue_first")}


def _residue_uses(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing qualified def, name) for every residue name in a module."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if node.name in RESIDUE_NAMES:
                out.append((scope, node.name))
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        out.extend((scope, name) for name in names if name in RESIDUE_NAMES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_residue_field_stays_in_the_runner():
    package = pathlib.Path(uqsl2.__file__).parent
    for path in sorted(package.glob("*.py")):
        allowed = RESIDUE_SCOPES.get(path.name, ())
        if allowed is None:
            continue
        for scope, name in _residue_uses(ast.parse(path.read_text(encoding="utf-8"))):
            inside = any(scope == a or scope.startswith(a + ".") for a in allowed)
            assert inside, f"{path.name}: {name} used in {scope or 'module scope'}"


def _division_handlers(tree: ast.AST) -> list[str]:
    """Enclosing def of every `except` clause that names DivisionByZeroError."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "DivisionByZeroError" for c in caught):
                out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_only_the_runner_catches_a_non_p_integral_entry():
    """No code but `reps.residue_first` catches DivisionByZeroError, so no
    second place chooses between F_p and the exact field."""
    package = pathlib.Path(uqsl2.__file__).parent
    found = [(path.name, scope) for path in sorted(package.glob("*.py"))
             for scope in _division_handlers(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("reps.py", "residue_first")]
    # a second fallback, say the certificate's old inline one, is caught
    mutant = ("def certify(T):\n    try:\n        R = T.mod_p()\n"
              "    except (ValueError, DivisionByZeroError):\n        R = None\n")
    assert _division_handlers(ast.parse(mutant)) == ["certify"]


# The functions that add into a sparse vector and drop what cancels: the
# exact kernels over Q(zeta_N), the product of two Scalar combinations
# among them, and the int kernel over F_p.
KERNEL = {("cyclo.py", "_add_into"), ("cyclo.py", "_axpy"),
          ("cyclo.py", "FieldContext.combination_product"), ("cyclo.py", "ResidueField.axpy")}


def _is_mod(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)


def _is_sum(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))


def _sum_names(scope: ast.AST) -> set[str]:
    """Names a def binds to a value reduced with `%` (`t = ... % p`,
    `t %= p`), the ints of an F_p kernel, or to a `+` or `-` sum (`s = cur
    + s`, `v -= c`), a Scalar or int sum: the names whose truth is a zero
    test."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            op = getattr(node, "op", None)
            if node.value is not None and (
                any(_is_mod(n) for n in ast.walk(node.value))
                or _is_sum(node.value)
                or isinstance(op, (ast.Mod, ast.Add, ast.Sub))
            ):
                out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _is_zero_test(node: ast.expr, sums: set[str]) -> bool:
    """`x.is_zero()`, or the truth of (or `== 0` on) an int reduced mod p
    or a name bound to a sum."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 0):
        node = node.left
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "is_zero"
    if isinstance(node, ast.Name):
        return node.id in sums
    return _is_mod(node)


def _prunes(stmts: list[ast.stmt]) -> bool:
    """Whether the statements delete a subscript or call a .pop method."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Delete) and any(
                isinstance(t, ast.Subscript) for t in node.targets
            ):
                return True
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"):
                return True
    return False


def _pruning_branches(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing qualified def, line) of every zero-test branch that
    deletes an entry."""
    out = []

    def visit(node: ast.AST, scope: str, sums: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            sums = _sum_names(node)
        if isinstance(node, ast.If) and _is_zero_test(node.test, sums) and (
            _prunes(node.body) or _prunes(node.orelse)
        ):
            out.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, sums)

    visit(tree, "", set())
    return out


def test_only_the_kernel_prunes_sparse_vectors():
    package = pathlib.Path(uqsl2.__file__).parent
    seen = set()
    for path in sorted(package.glob("*.py")):
        for scope, line in _pruning_branches(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add((path.name, scope))
            assert (path.name, scope) in KERNEL, f"{path.name}:{line} in {scope or 'module'}"
    assert seen == KERNEL
    # an int sum pruned by hand (the old composition-count peel) is caught
    mutant = ("def peel(residual, cell, c):\n"
              "    v = residual.get(cell, 0) - c\n"
              "    if v:\n"
              "        residual[cell] = v\n"
              "    else:\n"
              "        residual.pop(cell, None)\n")
    assert _pruning_branches(ast.parse(mutant)) == [("peel", 3)]


# The integer product and the normalization of Q(zeta_N).  Only cyclo names
# them, so every product of Scalar coefficients runs through the field's
# kernels and no module grows a second product loop.
FIELD_INTERNALS = frozenset({"_negacyclic_mul", "_make"})


def _internal_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) of every call to, or other reference of, a field
    internal: an alias such as `mul = cyclo._negacyclic_mul` counts too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in FIELD_INTERNALS:
            out.append((name, node.lineno))
    return sorted(out, key=lambda use: use[1])


def test_field_products_stay_in_cyclo():
    package = pathlib.Path(uqsl2.__file__).parent
    for path in sorted(package.glob("*.py")):
        uses = _internal_uses(path.read_text(encoding="utf-8"))
        if path.name == "cyclo.py":
            assert {name for name, _ in uses} == FIELD_INTERNALS
        else:
            assert not uses, f"{path.name}: {uses}"
    # a Scalar product written out by hand in another module is caught
    mutant = ("def times(f, a, b):\n"
              "    mul = cyclo._negacyclic_mul\n"
              "    return f._make(mul(a.num, b.num), a.den * b.den)\n")
    assert [name for name, _ in _internal_uses(mutant)] == ["_negacyclic_mul", "_make"]


# What linalg reads off the field it holds.  Elimination is `Echelon`'s own
# loop over `axpy`, so no field grows an elimination method of its own.
FIELD_KERNEL = frozenset({"axpy", "neg", "inverse", "one"})


def _field_reads(source: str) -> set[str]:
    """Attributes read off the held field: `ctx.x` or `self.ctx.x`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            held = node.value
            if (isinstance(held, ast.Name) and held.id == "ctx") or (
                isinstance(held, ast.Attribute) and held.attr == "ctx"
            ):
                out.add(node.attr)
    return out


def test_linalg_reads_only_the_field_kernel():
    source = (pathlib.Path(uqsl2.__file__).parent / "linalg.py").read_text(encoding="utf-8")
    assert _field_reads(source) == FIELD_KERNEL
    # a per-field elimination step called from linalg is caught
    mutant = source + ("\n\ndef clear(ctx, row, col, piv):\n"
                       "    return ctx.cross_eliminate(row, col, piv)\n")
    assert _field_reads(mutant) - FIELD_KERNEL == {"cross_eliminate"}


def _callers(tree: ast.AST, name: str) -> list[str]:
    """Enclosing function of every call to `name`."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and (_call_name(node) or "").split(".")[-1] == name:
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def _package_sources() -> dict[str, str]:
    package = pathlib.Path(uqsl2.__file__).parent
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(package.glob("*.py"))}


def _package_callers(sources: dict[str, str], name: str) -> list[tuple[str, str]]:
    """(module, enclosing function) of every call to `name` in the sources."""
    return sorted((module, scope) for module, source in sources.items()
                  for scope in _callers(ast.parse(source), name))


def test_tops_radicals_and_socles_share_one_hom_solver():
    """Tops, radical layers, socles and syzygy covers all go through
    `reps.hom_from_simple` (tops as socles of the transpose), called from
    `socle_multiplicities` and `_socle_sweep` alone (`first_radical_layers`
    and `syzygy` read the sweep); a second solver or a third caller must not
    come back."""
    sources = _package_sources()
    want = [("reps.py", "_socle_sweep"), ("reps.py", "socle_multiplicities")]
    assert _package_callers(sources, "hom_from_simple") == want
    # a third caller, say a top read straight off the solver, is caught
    mutant = dict(sources)
    mutant["moncat.py"] += ("\n\ndef head_count(M, i, j):\n"
                            "    return reps.hom_from_simple(transpose(M), i, j, dim_only=True)\n")
    assert _package_callers(mutant, "hom_from_simple") == sorted(
        want + [("moncat.py", "head_count")])


def test_kernels_stay_in_the_solvers():
    """`nullspace_basis` is called only by the two Hom solvers and the block
    structure's socle endomorphism.  rad M and syzygies are quotients of a
    transpose, so no kernel over all of a module comes back, and no function
    named `radical` or `sub_rep` is defined in the package: those
    constructions live on as test oracles (`tests/oracles.py`)."""
    sources = _package_sources()
    want = [("reps.py", "hom_from_simple"), ("reps.py", "hom_space"),
            ("reps.py", "verify_block_structure")]
    assert _package_callers(sources, "nullspace_basis") == want
    # a fourth caller, rad M as a kernel over all of M, is caught
    mutant = dict(sources)
    mutant["reps.py"] += ("\n\ndef rad_basis(M, functionals):\n"
                          "    return nullspace_basis(M.field, functionals, M.dim)\n")
    assert _package_callers(mutant, "nullspace_basis") == sorted(
        want + [("reps.py", "rad_basis")])
    defined = [(module, node.name) for module, source in sources.items()
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in ("radical", "sub_rep")]
    assert not defined


def _exhaustive_mode(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, what) for every `slow` parameter, `--slow` flag and
    `_regular_rank` name or definition in the sources."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.arg) and node.arg == "slow":
                out.append((module, "slow parameter"))
            elif isinstance(node, ast.Constant) and node.value == "--slow":
                out.append((module, "--slow flag"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    node.name == "_regular_rank"):
                out.append((module, "_regular_rank"))
            elif isinstance(node, ast.Attribute) and node.attr == "_regular_rank":
                out.append((module, "_regular_rank"))
    return out


def test_regular_decomposition_has_one_mode():
    """`verify_regular_decomposition` decides u = sum of the shifted P_k
    from its socle argument alone: no `slow` parameter, no `verify --slow`
    and no brute-force `_regular_rank` in the package.  The rank of all
    4,096 spanning vectors is a test oracle (`tests/oracles.py`)."""
    sources = _package_sources()
    assert _exhaustive_mode(sources) == []
    # the knob and the exhaustive path coming back are caught
    mutant = dict(sources)
    mutant["qgroup.py"] += ("\n\ndef check(ctx, slow=False):\n"
                            "    return ctx._regular_rank() if slow else None\n")
    mutant["cli.py"] += '\np.add_argument("--slow", action="store_true")\n'
    assert sorted(_exhaustive_mode(mutant)) == [
        ("cli.py", "--slow flag"), ("qgroup.py", "_regular_rank"),
        ("qgroup.py", "slow parameter")]


# What a tensor verdict is read from: the tops, the projective counts and
# the F_p runner they go through.  In moncat only `decompose` and the rank
# cross-check of its cover case reach them, so every S (x) S and P (x) S
# verdict is one decision procedure.
TENSOR_COUNTS = frozenset({"top_multiplicities", "projective_counts", "residue_first"})
COUNT_READERS = frozenset({"decompose", "verify_projective_tensor_engine_samples"})


def _count_readers(source: str) -> set[str]:
    """Top-level defs that name a tensor count: a call, or a solve handed
    to `residue_first`, alike (the import itself is not a use)."""
    out = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in TENSOR_COUNTS:
                out.add(getattr(top, "name", "module scope"))
    return out


def test_tensor_verdicts_have_one_decision_procedure():
    """In moncat only `decompose` and the engine-sample cross-check read
    tops, projective counts or the F_p runner, and no tensor verdict peels
    a graded character: `composition_counts` is called from k0ring alone."""
    sources = _package_sources()
    assert _count_readers(sources["moncat.py"]) == COUNT_READERS
    peels = _package_callers(sources, "composition_counts")
    assert peels and {module for module, _ in peels} == {"k0ring.py"}
    # a second certificate beside `decompose`, say the old P (x) S one, is caught
    mutant = dict(sources)
    mutant["moncat.py"] += ("\n\ndef _tops_certificate(T, want_top):\n"
                            "    counts = composition_counts(T)\n"
                            "    top = residue_first(T, lambda X: top_multiplicities(X, counts),\n"
                            "                        lambda top: top == want_top)\n"
                            "    return None if top == want_top else 'top differs'\n")
    assert _count_readers(mutant["moncat.py"]) - COUNT_READERS == {"_tops_certificate"}
    assert ("moncat.py", "_tops_certificate") in _package_callers(mutant, "composition_counts")


def _memo_uses(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(enclosing qualified def, load/store, line) of every `.memo` attribute."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "memo":
            out.append((scope, type(node.ctx).__name__, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def test_memo_is_read_only_through_cached():
    """`AlgebraContext.cached` is the one reader and writer of `memo`; the
    constructor only creates it.  A get/compute/store block elsewhere must
    not come back."""
    package = pathlib.Path(uqsl2.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, kind, line in _memo_uses(tree):
            found.append((path.name, scope, kind))
            assert (path.name, scope) == ("qgroup.py", "AlgebraContext.cached") or (
                path.name, scope, kind) == ("qgroup.py", "AlgebraContext.__init__", "Store"
            ), f"{path.name}:{line} uses .memo in {scope or 'module scope'}"
    assert ("qgroup.py", "AlgebraContext.cached", "Load") in found


# The one output path of the command line: `_render` turns a result into the
# view that --format selects, and `main` writes it to stdout or --out.  A
# print without file=sys.stderr counts as a stdout write.
OUTPUT_PATH = {"dumps": "_render", "DictWriter": "_render", "stdout": "main", "open": "main"}


def _output_uses(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing def, what) for every JSON dump, CSV writer, stdout write
    and `open` call in a module."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            name = (_call_name(node) or "").split(".")[-1]
            if name in ("dumps", "DictWriter", "open"):
                out.append((scope, name))
            elif name == "print" and not any(
                k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords
            ):
                out.append((scope, "stdout"))
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            out.append((scope, "stdout"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def _output_breaches(source: str) -> list[str]:
    return [f"{what} in {scope or 'module scope'}"
            for scope, what in _output_uses(ast.parse(source)) if OUTPUT_PATH[what] != scope]


def test_cli_has_one_output_path():
    source = (pathlib.Path(uqsl2.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert not _output_breaches(source)
    assert set(_output_uses(ast.parse(source))) == {(s, w) for w, s in OUTPUT_PATH.items()}
    # an inline dump outside `_render` is caught
    mutant = source + "\n\ndef cmd_extra(payload):\n    return json.dumps(payload)\n"
    assert _output_breaches(mutant) == ["dumps in cmd_extra"]
