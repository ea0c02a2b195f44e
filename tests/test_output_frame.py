"""Every file the CLI writes is made and placed by its one output frame.

`cli._write_outputs` makes the output directory, renames the staged files
into place and, on a failure, removes the temporaries and the directories it
made. This AST check keeps a second write path from growing back: in
`cli.py`, a call that makes a directory or places or removes a file appears
only inside that function.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "driftkit" / "cli.py"
FRAME = "_write_outputs"

# calls of any receiver (Path methods), and calls of the os module
METHODS = {"mkdir", "unlink", "rmdir"}
OS_CALLS = {"replace", "rename", "rmdir", "remove", "unlink", "mkdir", "makedirs"}


def file_calls(tree: ast.AST):
    """(enclosing top-level function or None, call name) of each file-placing call."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, receiver = node.func.attr, node.func.value
            if isinstance(receiver, ast.Name) and receiver.id == "os" and attr in OS_CALLS:
                yield owner, f"os.{attr}"
            elif attr in METHODS:
                yield owner, attr


def test_only_the_output_frame_makes_or_places_files():
    calls = list(file_calls(ast.parse(CLI.read_text(encoding="utf-8"))))
    assert sorted(f"{owner}: {name}" for owner, name in calls if owner != FRAME) == []
    assert {name for owner, name in calls if owner == FRAME} >= {
        "mkdir", "os.replace", "os.rmdir", "unlink"
    }
