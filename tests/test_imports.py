"""Every name a module of the package or of the tests imports is read in that
module, or listed in its ``__all__``: an import nothing reads is left over
from code that is gone."""

import ast
from pathlib import Path

import qsmkit

ROOTS = (Path(qsmkit.__file__).parent, Path(__file__).parent)


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "__all__ = ['b']\nos = 1\n")
    assert unread_imports(source) == ["os", "osp", "d"]


def test_every_import_is_read():
    unread = [f"{path.relative_to(root.parent)}: {name}"
              for root in ROOTS for path in sorted(root.glob("*.py"))
              for name in unread_imports(path.read_text())]
    assert unread == []
