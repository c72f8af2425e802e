"""The oracles' independence from the library they check."""

import ast
from pathlib import Path

# the values the oracles compare against and the contract of the parser's
# messages; every computation the oracles make is their own
ALLOWED = {
    "schemeforge.exact": {"Polynomial"},
    "schemeforge.io": {"MAX_DIGITS", "MAX_EXPONENT", "MAX_ORDER", "MatrixParseError", "_shown"},
    "schemeforge.matrix": {"RationalMatrix"},
    "schemeforge.scheme": {"SchemeAxiomError"},
}


def test_oracles_import_only_values_and_messages_from_the_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "schemeforge":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "schemeforge"]
    assert imported, "the oracles compare against schemeforge values"
    assert [(module, name) for module, name in imported if name not in ALLOWED.get(module, ())] == []
