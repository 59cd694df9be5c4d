import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "monoidpcsp")

# (module, name) -> why the module imports a name it does not use itself
RE_EXPORTS = {
    ("classify", "nf_hom_image"):
        "bench/spans.py traces it as monoidpcsp.classify.nf_hom_image",
    ("classify", "nf_relation_image"):
        "bench/spans.py traces it as monoidpcsp.classify.nf_relation_image",
    ("cosets", "generated_subset"):
        "bench/spans.py traces it as monoidpcsp.cosets.generated_subset",
}


def unused_imports(source):
    """The names an import statement anywhere in source binds that no
    expression reads and that __all__ does not list."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    """Each module reads every name it imports, apart from the listed
    re-exports, so a deletion that leaves an import behind fails here."""
    found = set()
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                module = fname[:-3]
                found.update((module, name) for name in unused_imports(fh.read()))
    assert found == set(RE_EXPORTS)


def test_unused_imports_sees_every_kind_of_use():
    source = ("import os.path\nfrom x import a, b as c, d, e\n"
              "__all__ = ['d']\nos.path.join(a)\n\ndef f():\n    from y import g\n")
    assert unused_imports(source) == {"c", "e", "g"}


def names_in(source):
    """Every identifier source reads, binds, imports or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    return names


def modules_naming(name):
    """The source files of the package in which the identifier occurs."""
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                if name in names_in(fh.read()):
                    found.append(fname)
    return found


def test_only_core_names_is_hom_map():
    """enumerate_homs is the one hom search: outside core, where make_hom
    checks a given map, no module tests candidate maps with is_hom_map."""
    assert "is_hom_map" in names_in("from .core import is_hom_map as h\n")
    assert "is_hom_map" in names_in("core.is_hom_map(M, N, t)\n")
    assert modules_naming("is_hom_map") == ["core.py"]


def test_only_model_names_block_relation():
    """make_nf_template is the one home of the rule that a normal-form
    relation is a coset: no module outside model builds a BlockRelation
    around it."""
    assert modules_naming("BlockRelation") == ["model.py"]


def int_reads_outside(source, function):
    """The lines where source reads the name ``int`` outside the function
    of that name, other than as a type: an annotation, or the class
    argument of ``isinstance``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            allowed.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.AnnAssign):
            allowed.update(map(id, ast.walk(node.annotation)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            allowed.update(map(id, ast.walk(node.args[1])))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "int"
                  and id(node) not in allowed)


def test_only_parse_ints_reads_integers():
    """parse_ints is the one integer reader of the text formats: in model
    and polymorph the name int occurs only inside it, apart from type
    tests and annotations, so the element table that reads canonical
    fields cannot grow into a second integer rule."""
    assert int_reads_outside(
        "def parse_ints(t):\n    return int(t)\n"
        "def g(t):\n    x: int = 0\n    return isinstance(t, int)\n", "parse_ints") == []
    assert int_reads_outside(
        "def g(ts):\n    return list(map(int, ts))\n"
        "def h(t):\n    return int(t)\n", "parse_ints") == [2, 4]
    for fname in ("model.py", "polymorph.py"):
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            assert int_reads_outside(fh.read(), "parse_ints") == [], fname
