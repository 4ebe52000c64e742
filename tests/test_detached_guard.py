"""Guard: nothing in ``src/`` schedules an event only to throw it away.

A CPU charge or a process whose result is discarded can never be waited
on. Charged the ordinary way, it still puts an event on the heap that costs
a push, a pop and a trip through the run loop and does nothing. Such calls
must pass ``detached=True``, which books the same CPU time (or runs the
same process) without that event.

The check is syntactic (stdlib ``ast``): an expression statement whose
value is a call to ``<cpu>.execute(...)`` / ``<cpu>.execute_cycles(...)``
(the receiver's name contains ``cpu``) or ``<env>.process(...)`` (the
receiver's name is ``env``) must pass ``detached=True``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _receiver_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _needs_detached(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    receiver = _receiver_name(func.value)
    if func.attr in ("execute", "execute_cycles"):
        return "cpu" in receiver.lower()
    if func.attr == "process":
        return receiver == "env"
    return False


def _is_detached(call: ast.Call) -> bool:
    return any(
        keyword.arg == "detached"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def discarded_undetached(source: str, filename: str = "<src>") -> list[str]:
    """``file:line call`` for every discarded charge or spawn not detached."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and _needs_detached(node.value)
            and not _is_detached(node.value)
        ):
            found.append(f"{filename}:{node.lineno} {ast.unparse(node.value)}")
    return found


def test_no_discarded_charge_or_spawn_schedules_an_event():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += discarded_undetached(path.read_text(), str(path.relative_to(SRC)))
    assert not found, "discarded results must pass detached=True:\n" + "\n".join(found)


def test_guard_flags_what_it_should():
    source = (
        "def f(self, env, cpu):\n"
        "    self.node.cpu.execute(1e-6, 'tag')\n"
        "    cpu.execute_cycles(100, 'tag')\n"
        "    env.process(g())\n"
        "    self.cpu.execute(1e-6, 'tag', detached=True)\n"
        "    env.process(g(), detached=True)\n"
        "    yield self.cpu.execute(1e-6, 'tag')\n"
        "    done = env.process(g())\n"
        "    controller.execute(request)\n"
    )
    assert [entry.split()[0] for entry in discarded_undetached(source)] == [
        "<src>:2",
        "<src>:3",
        "<src>:4",
    ]
