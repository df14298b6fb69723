"""Parsed expressions are shared values.

``parse`` hands every caller with the same text the same tree, and a
sealed ad keeps its match signature.  Both are safe only because an
``Expr`` node never changes after ``__init__`` -- the last test here
gates that over ``src/repro`` by reading the source.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro
from repro.classads import ClassAd, ClassAdSyntaxError, match_signature, \
    parse
from repro.classads import ast as nodes
from repro.classads.ast import EvalContext

from .test_properties import bool_exprs

SRC = Path(repro.__file__).resolve().parent
HERE = Path(__file__).resolve().parent


def _corpus() -> list[str]:
    """Every literal expression text the parser and evaluator tests hand
    to ``parse``/``ev``/``refused``: good and bad, every node kind."""
    texts = []
    for name in ("test_eval.py", "test_lexer_parser.py"):
        for node in ast.walk(ast.parse((HERE / name).read_text())):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", None) in ("ev", "parse",
                                                       "refused") and \
                    node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                texts.append(node.args[0].value)
    return sorted(set(texts))


CORPUS = _corpus()


def _context() -> EvalContext:
    my = ClassAd({"Memory": 128, "Arch": "INTEL", "Disk": 10, "X": 4})
    target = ClassAd({"Memory": 64, "Mips": 200, "OpSys": "LINUX"})
    my.set_expression("Chained", "Memory * 2")
    return EvalContext(my=my, target=target)


def _same(a, b) -> bool:
    return a is b or (type(a) is type(b) and a == b)


def _outcome(parser, text):
    try:
        expr = parser(text)
    except ClassAdSyntaxError as exc:
        return "raises", str(exc)
    return str(expr), expr.eval(_context())


def test_corpus_covers_every_node_kind():
    kinds = set()
    for text in CORPUS:
        try:
            tree = parse(text)
        except ClassAdSyntaxError:
            continue
        stack = [tree]
        while stack:
            node = stack.pop()
            kinds.add(type(node).__name__)
            stack.extend(getattr(node, slot) for slot in
                         ("operand", "left", "right") if hasattr(node, slot))
            stack.extend(getattr(node, "args", ()))
    assert len(CORPUS) > 100
    assert kinds == {"Literal", "AttrRef", "UnaryOp", "BinaryOp", "FuncCall"}


@pytest.mark.parametrize("text", CORPUS)
def test_shared_tree_renders_and_evaluates_as_a_fresh_parse(text):
    shared, fresh = _outcome(parse, text), _outcome(parse.__wrapped__, text)
    assert shared[0] == fresh[0]
    assert _same(shared[1], fresh[1]), (shared, fresh)


@given(bool_exprs())
@settings(max_examples=100)
def test_generated_expressions_share_and_agree(text):
    assert parse(text) is parse(text)
    assert _outcome(parse, text) == _outcome(parse.__wrapped__, text)


def test_one_tree_per_text():
    text = 'TARGET.Arch == "INTEL" && TARGET.Memory >= 128'
    assert parse(text) is parse(text)
    assert parse(text) is not parse.__wrapped__(text)
    first, second = ClassAd(), ClassAd()
    first.set_expression("Requirements", text)
    second.set_expression("Requirements", text)
    assert first.lookup("Requirements") is second.lookup("Requirements")


def test_a_syntax_error_raises_every_time():
    text = "Memory >= (1 +"
    before = parse.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ClassAdSyntaxError):
            parse(text)
    assert parse.cache_info().currsize == before


def test_the_memo_is_bounded():
    assert parse.cache_info().maxsize == 4096


# -- the signature a sealed ad keeps -------------------------------------------

def _job(**extra) -> ClassAd:
    ad = ClassAd({"Owner": "alice", "ImageSize": 32, **extra})
    ad.set_expression("Requirements",
                      "TARGET.Memory >= 64")
    ad.set_expression("Rank", "TARGET.Mips")
    return ad


def test_sealed_ad_keeps_a_signature_equal_to_a_fresh_one():
    ad = _job().seal()
    signature = match_signature(ad)
    assert match_signature(ad) is signature
    assert signature == match_signature(ad.copy())
    assert signature == match_signature(_job())


def test_unsealed_ad_is_never_cached():
    ad = _job()
    before = match_signature(ad)
    assert ad._signature is None
    ad["Owner"] = "bob"
    after = match_signature(ad)
    assert after != before and ad._signature is None
    assert ("owner", '"bob"') in after
    assert ad.copy().seal()._signature is None      # sealing computes nothing


# -- the gate: an Expr node is assigned only in its own __init__ ---------------

EXPR_CLASSES = {name for name, obj in vars(nodes).items()
                if isinstance(obj, type) and issubclass(obj, nodes.Expr)}
NODE_ATTRS = {slot for name in EXPR_CLASSES
              for klass in getattr(nodes, name).__mro__
              for slot in klass.__dict__.get("__slots__", ())}
#: assignments elsewhere to an attribute an Expr node also has, on an
#: object that is not an Expr (file, target)
NOT_EXPRS = {
    ("dagman/dag.py", "node.name"),
    ("grid/scenarios.py", "scenario.name"),
    ("grid/testbed.py", "gk_host.name"),
    ("grid/testbed.py", "site.name"),
    ("grid/testbed.py", "site.se_host.name"),
}


def _assigned(tree):
    """(function or None, receiver text, attribute) of every attribute a
    statement or ``setattr``-like call assigns or deletes."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(id(node), func)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "setattr", "delattr", "object.__setattr__"):
            receiver = ast.unparse(node.args[0])
            yield owner.get(id(node)), receiver, "<setattr>"
            continue
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute):
                    yield (owner.get(id(node)), ast.unparse(sub.value),
                           sub.attr)


def test_expr_nodes_are_assigned_only_in_their_init():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        expr_methods = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and (
                    cls.name in EXPR_CLASSES or
                    {ast.unparse(b).rsplit(".", 1)[-1] for b in cls.bases}
                    & EXPR_CLASSES):
                if rel != "classads/ast.py":
                    found.append(f"{rel}: {cls.name} subclasses Expr")
                expr_methods.update(
                    id(f) for f in cls.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for func, receiver, attr in _assigned(tree):
            if receiver == "self":
                if func is not None and id(func) in expr_methods and \
                        func.name != "__init__":
                    found.append(f"{rel}: {func.name} assigns self.{attr}")
            elif (attr == "<setattr>" or attr in NODE_ATTRS) and \
                    (rel, f"{receiver}.{attr}") not in NOT_EXPRS:
                found.append(f"{rel}: assigns {receiver}.{attr}")
    assert found == []
