"""Rules the library source keeps."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coordinet"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _np_random_name(node):
    """``X`` for an ``np.random.X`` attribute node, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random" and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "np"):
        return node.attr
    return None


def _unseeded_randomness(source: str) -> list[str]:
    """Lines that draw, or could draw, from a stream built without an
    explicit seed: anything of np.random but default_rng(seed),
    Generator(PCG64(seed)) and SeedSequence(seed) (and np.random.Generator
    as a type annotation), and any import of stdlib random or numpy.random."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or "", *(f"{node.module}.{a.name}" for a in node.names)]
        else:
            continue
        if any(m.split(".")[0] == "random" or m.startswith("numpy.random") for m in modules):
            found.append(f"{node.lineno}: import")
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    seeded_bits = {id(c.args[0].func) for c in calls.values()  # PCG64 as Generator's one argument
                   if _np_random_name(c.func) == "Generator" and len(c.args) == 1
                   and _np_random_name(getattr(c.args[0], "func", None)) == "PCG64"}
    for node in ast.walk(tree):
        name = _np_random_name(node)
        if name is None:
            continue
        call = calls.get(id(node))
        if call is None:
            ok = name == "Generator"
        elif name == "Generator":
            ok = len(call.args) == 1 and id(getattr(call.args[0], "func", None)) in seeded_bits
        elif name == "PCG64":
            ok = id(node) in seeded_bits and bool(call.args)
        else:
            ok = name in ("default_rng", "SeedSequence") and bool(call.args)
        if not ok:
            found.append(f"{node.lineno}: np.random.{name}")
    return found


def test_all_randomness_is_seeded():
    # protocol laws are enumerated, so the only draws are seeded bin
    # assignments and seeded optimizer starts
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files
             for line in _unseeded_randomness(path.read_text())]
    assert not found, found


def test_seeding_rule_flags_unseeded_streams():
    bad = ["np.random.rand(3)", "np.random.seed(1)", "np.random.default_rng()",
           "np.random.Generator(np.random.PCG64())", "np.random.Generator(np.random.MT19937(1))",
           "np.random.Generator(pcg(1))", "np.random.PCG64(1)", "np.random.SeedSequence()",
           "f = np.random.random",
           "import random", "from random import random", "from numpy.random import default_rng",
           "from numpy import random"]
    for line in bad:
        assert _unseeded_randomness(line), line
    good = ["np.random.default_rng(seed)", "np.random.Generator(np.random.PCG64(seed))",
            "np.random.SeedSequence([a, n]).generate_state(3)",
            "def f(rng: np.random.Generator): pass"]
    for line in good:
        assert not _unseeded_randomness(line), line
