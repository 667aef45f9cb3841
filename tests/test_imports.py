"""Every name a module imports is used by it: library, scripts and tests.
No library function keeps a process-wide cache keyed on a graph."""

from __future__ import annotations

import ast
from pathlib import Path

import chromheap

PACKAGE = Path(chromheap.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    folders = (PACKAGE, ROOT / "scripts", ROOT / "tests")
    modules = [sorted(p for p in f.glob("*.py") if p.name != "__init__.py") for f in folders]
    assert all(modules)
    unused = [entry for paths in modules for p in paths for entry in _unused_imports(p)]
    assert unused == []


def _graph_keyed_caches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or not node.args.args:
            continue
        first = node.args.args[0].annotation
        if first is None or ast.unparse(first).strip("'\"") != "Graph":
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


def test_no_process_wide_cache_keyed_on_a_graph():
    # such a cache keeps every graph the process has seen alive;
    # graphs.graph_cached memoizes on the graph object instead
    found = [entry for p in sorted(PACKAGE.glob("*.py")) for entry in _graph_keyed_caches(p)]
    assert found == []


def _names_used(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _module_names(path: Path) -> set[str]:
    """Functions, classes and globals defined at the top of a module."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _package_imports(module: str) -> dict[str, set[str]]:
    """Names module imports from each sibling module of the package."""
    out: dict[str, set[str]] = {}
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def _modules_reached(roots: set[str]) -> set[str]:
    seen, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo += _package_imports(module)
    return seen


def test_chi_routes_share_no_code():
    # chi has three routes: deletion-contraction, subset_dp (with the
    # bivariate polynomial on the same table) and count_independent_tuples
    # by the ranked subset product.  Each route's functions, followed through
    # chromatic.py, reach neither of the other two.  "auto" reduces the
    # graph and then calls the first two; no route reaches the reduction.
    tree = ast.parse((PACKAGE / "chromatic.py").read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    kernel = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "subsets":
            kernel |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # the graph primitives and containers never reach the subset kernel
            helper = ast.parse((PACKAGE / f"{node.module}.py").read_text())
            assert not [n for n in ast.walk(helper) if isinstance(n, ast.ImportFrom) and n.module == "subsets"]
    assert kernel

    def reached(roots: set[str]) -> set[str]:
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += _names_used(functions[name]) if name in functions else []
        return seen

    def branch(method: str) -> set[str]:
        body = next(
            node.body for node in ast.walk(functions["chromatic_polynomial"])
            if isinstance(node, ast.If) and repr(method) in ast.unparse(node.test)
        )
        return set().union(*map(_names_used, body))

    reduction = "_chromatic_reduced"
    assert {reduction, "_ranked_table", "_chrom_delcon"} <= reached(branch("auto"))
    table_route = reached(branch("subset_dp") | {"bivariate_polynomial"})
    assert "_ranked_table" in table_route
    assert table_route.isdisjoint(kernel | {"_chrom_delcon", "_chromatic_delcon", "chromatic_polynomial", reduction})
    delcon_route = reached(branch("deletion_contraction") | {"_chrom_delcon"})
    assert "_chrom_delcon" in delcon_route
    assert delcon_route.isdisjoint(kernel | {"_ranked_table", reduction})
    tuples_route = reached({"count_independent_tuples"})
    assert "ranked_entry" in tuples_route
    assert tuples_route.isdisjoint({"_ranked_table", "independence_polynomials", "_chrom_delcon", reduction})
    # the ranked chi table and the ranked subset product are separate walks,
    # and the product is the one subset convolution the package has
    subsets_names = _module_names(PACKAGE / "subsets.py")
    assert reached({"_ranked_table"}).isdisjoint(subsets_names)
    assert subsets_names.isdisjoint({"convolve", "power", "identity"})


def test_identity_sides_share_no_code():
    # An alphabet identity's algebraic side (X_G, then the substitution
    # p_k -> its alphabet image) and its grouped orientation side share no
    # symfunc code but the identity table and the MultiPoly container.
    tree = ast.parse((PACKAGE / "symfunc.py").read_text())
    defined: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id: node for t in targets if isinstance(t, ast.Name)}

    def reached(roots: set[str]) -> set[str]:
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name in defined and name not in seen:
                seen.add(name)
                # a class is a container: its methods are not followed
                if not isinstance(defined[name], ast.ClassDef):
                    todo += _names_used(defined[name])
        return seen

    algebraic = reached({"csf_powersum", "substitute_power_sums", "_alphabet_image"})
    grouped = reached({"_grouped_side"})
    assert {"_connected_csf", "PPoly", "MultiPoly"} <= algebraic
    assert {"_IDENTITIES", "_lambda_weight", "_add_shifted"} <= grouped
    assert algebraic & grouped <= {"_IDENTITIES", "MultiPoly"}
    # identity_sides joins the two routes and is reached by neither
    assert "identity_sides" not in algebraic | grouped


def test_orientation_tables_import_nothing_from_chromatic():
    # the a/b tables count one side of every reciprocity check and chi the
    # other, so orientations.py shares graph primitives with chromatic.py
    # and no code of it
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "orientations.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "graphs" in imported
    assert not [name for name in imported if name.split(".")[-1] == "chromatic"]


def test_reciprocity_counts_reach_no_chi_code():
    # theorem 1 counts its block tuples from the a/b tables and the ranked
    # subset product, and compares them with chi: the helpers of the count
    # come from modules that reach no chromatic code, and subsets.py imports
    # nothing of the package
    tree = ast.parse((PACKAGE / "reciprocity.py").read_text())
    check = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "check_derivative_reciprocity")
    imports, used = _package_imports("reciprocity"), _names_used(check)
    assert {"acyclic_count_table", "unique_source_min_table"} <= imports["orientations"] & used
    assert imports["subsets"] == {"ranked_entry", "ranked_product"} <= used
    assert "chromatic" not in _modules_reached({"orientations", "subsets"})
    assert not _package_imports("subsets")
    assert "_block_tuples" not in _module_names(PACKAGE / "reciprocity.py")
