"""Guard: nothing in ``src/`` schedules an event only to throw it away.

A CPU charge or a process whose result is discarded can never be waited
on. Charged the ordinary way, it still puts an event on the heap that costs
a push, a pop and a trip through the run loop and does nothing. Such calls
must pass ``detached=True``, which books the same CPU time (or runs the
same process) without that event.

The check is syntactic (stdlib ``ast``): an expression statement whose
value is a call to ``<charge>.book(...)`` (a :class:`~repro.simcore.Charge`
handle's booking, which every CPU charge goes through), to
``<cpu>.execute(...)`` / ``<cpu>.execute_cycles(...)`` (the receiver's
name contains ``cpu``) or to ``<env>.process(...)`` (the receiver's name
is ``env``) must pass ``detached=True``.

A concurrency slot is the same case: a free slot granted at once needs no
``ResourceRequest`` event. So every ``<resource>.request()`` must sit in
the ``if <slot> is None:`` branch right after
``<slot> = <resource>.grant_now()``, on the same resource.
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
    if func.attr == "book":
        return True
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
        "    self.charge.book(1e-6, 'op')\n"
        "    self.ops.charge.book(1e-6, 'op', detached=True)\n"
        "    yield self.charge_nginx.book(1e-6, 'op')\n"
        "    cpu.charge('tag').book(1e-6)\n"
    )
    assert [entry.split()[0] for entry in discarded_undetached(source)] == [
        "<src>:2",
        "<src>:3",
        "<src>:4",
        "<src>:10",
        "<src>:13",
    ]


def _grant_fallback(stmts: list, index: int) -> str:
    """The resource whose ``grant_now()`` fallback ``stmts[index]`` is, or ''.

    That is an ``if <slot> is None:`` right after
    ``<slot> = <resource>.grant_now()``.
    """
    branch = stmts[index]
    if index == 0 or not isinstance(branch, ast.If):
        return ""
    test = branch.test
    if not (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ""
    grant = stmts[index - 1]
    if (
        isinstance(grant, ast.Assign)
        and [ast.unparse(target) for target in grant.targets] == [test.left.id]
        and isinstance(grant.value, ast.Call)
        and isinstance(grant.value.func, ast.Attribute)
        and grant.value.func.attr == "grant_now"
    ):
        return ast.unparse(grant.value.func.value)
    return ""


def _slot_requests(node: ast.AST):
    for inner in ast.walk(node):
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "request"
            and not inner.args
            and not inner.keywords
        ):
            yield inner


def slot_requests_without_grant(source: str, filename: str = "<src>") -> list[str]:
    """``file:line call`` for every ``.request()`` outside a grant fallback."""
    tree = ast.parse(source, filename)
    covered = set()
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue
            for index in range(len(stmts)):
                resource = _grant_fallback(stmts, index)
                if not resource:
                    continue
                for body_stmt in stmts[index].body:
                    for call in _slot_requests(body_stmt):
                        if ast.unparse(call.func.value) == resource:
                            covered.add(id(call))
    return [
        f"{filename}:{call.lineno} {ast.unparse(call)}"
        for call in _slot_requests(tree)
        if id(call) not in covered
    ]


def test_every_slot_request_is_a_grant_now_fallback():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += slot_requests_without_grant(
            path.read_text(), str(path.relative_to(SRC))
        )
    assert not found, (
        "take slots with grant_now() and request() only when it returns None:\n"
        + "\n".join(found)
    )


def test_slot_guard_flags_what_it_should():
    source = (
        "def f(self, pool, other):\n"
        "    slot = self._slots.request()\n"
        "    slot = self._slots.grant_now()\n"
        "    if slot is None:\n"
        "        slot = self._slots.request()\n"
        "        yield slot\n"
        "    slot = pool.grant_now()\n"
        "    if slot is None:\n"
        "        slot = other.request()\n"
        "    if slot is None:\n"
        "        slot = pool.request()\n"
        "    slot = pool.grant_now()\n"
        "    if slot is not None:\n"
        "        slot = pool.request()\n"
        "    client.request(url)\n"
    )
    assert [
        entry.split()[0] for entry in slot_requests_without_grant(source)
    ] == ["<src>:2", "<src>:9", "<src>:11", "<src>:14"]
