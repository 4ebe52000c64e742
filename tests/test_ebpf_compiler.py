"""The compiled eBPF path: differential tests against the reference
interpreter, verify-on-first-run, the compile cache and the context
encoders."""

import gc
import inspect

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.kernel.ebpf import (
    ArrayMap,
    Assembler,
    HashMap,
    HookPoint,
    MapRegistry,
    ProgramType,
    SK_PASS,
    Scratch,
    SockMap,
    VerifierError,
    Vm,
    programs,
    verify,
)
from repro.kernel.ebpf.isa import (
    LOAD_SIZES,
    R0,
    R1,
    R10,
    STACK_SIZE,
    STORE_SIZES,
    Insn,
    Op,
    Program,
)
from repro.kernel.fib import FibTable
from repro.kernel.packet import FiveTuple
from tests.ebpf_reference import reference_run

# -- a world: maps, FIB and scratch, rebuilt identically for each side -------
ARRAY_FD, HASH_FD, SOCK_FD, MISSING_FD = 3, 4, 5, 6
HELPER_IDS = sorted(Vm()._helpers)
UNKNOWN_HELPER = 9999
FLOW = FiveTuple(src_ip="10.0.0.1", dst_ip="10.0.0.9", src_port=40000, dst_port=80)

U64 = st.integers(0, 2**64 - 1)
IMMEDIATES = st.one_of(
    st.sampled_from(
        [0, 1, 2, 4, 8, 16, 24, -1, -8, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -(2**63)]
    ),
    st.integers(0, 3),
    st.integers(0, 40),
    st.integers(-(2**64), 2**65),
)
WORLDS = st.fixed_dictionaries(
    {
        "array": st.lists(U64, min_size=4, max_size=4),
        "hash": st.dictionaries(
            st.one_of(st.integers(0, 7), st.integers(0, 7).map(lambda k: (1 << 16) | k)),
            U64,
            max_size=4,
        ),
        "sock": st.lists(st.integers(0, 7), max_size=4, unique=True),
        "now_ns": U64,
        "prandom": st.integers(0, 2**32 - 1),
        "fib": st.sampled_from(["none", "hit", "miss"]),
        "flow": st.booleans(),
    }
)


class Endpoint:
    """A sockmap value that records nothing; compared by name."""

    def __init__(self, name):
        self.name = name

    def deliver_descriptor(self, item):  # pragma: no cover - never delivered
        pass


def build_world(spec):
    registry = MapRegistry()
    array, hashmap, sockmap = ArrayMap(4, "array"), HashMap(4, "hash"), SockMap(4, "sock")
    assert [registry.create(m) for m in (array, hashmap, sockmap)] == [
        ARRAY_FD,
        HASH_FD,
        SOCK_FD,
    ]
    for index, value in enumerate(spec["array"]):
        array.update(index, value)
    for key, value in spec["hash"].items():
        hashmap.update(key, value)
    for key in spec["sock"]:
        sockmap.update(key, Endpoint(f"sock-{key}"))
    fib = None
    if spec["fib"] != "none":
        fib = FibTable()
        if spec["fib"] == "hit":
            fib.add_route(FLOW.dst_ip, ifindex=7)
    scratch = Scratch(
        map_registry=registry,
        now_ns=spec["now_ns"],
        fib=fib,
        packet_flow=FLOW if spec["flow"] else None,
        prandom_state=spec["prandom"],
    )
    return Vm(registry), scratch, (array, hashmap, sockmap)


def observe(execute, program, data, spec):
    """Everything a run can change or return, for one fresh world."""
    vm, scratch, (array, hashmap, sockmap) = build_world(spec)
    try:
        result = execute(vm, program, data, scratch)
    except Exception as error:  # faults must match in type and message
        outcome = ("fault", type(error), str(error))
    else:
        assert result.scratch is scratch
        outcome = ("ok", result.return_value, result.insns_executed, bytes(result.memory))
    endpoint = scratch.redirect_endpoint
    return (
        outcome,
        [array.lookup(index) for index in range(4)],
        sorted((key, hashmap.lookup(key)) for key in hashmap.keys()),
        sorted((key, sockmap.lookup(key).name) for key in sockmap.keys()),
        endpoint.name if endpoint is not None else None,
        scratch.redirect_ifindex,
        list(scratch.printk_log),
        scratch.prandom_state,
    )


def assert_same(program, data, spec):
    compiled = observe(Vm.run, program, data, spec)
    reference = observe(reference_run, program, data, spec)
    assert compiled == reference


# -- random verified programs ---------------------------------------------------
ALU_OPS = [
    op
    for op in Op
    if not (op.is_jump or op.is_load or op.is_store or op in (Op.CALL, Op.EXIT))
]
LOAD_OPS = list(LOAD_SIZES)
STORE_OPS = list(STORE_SIZES)
JUMP_OPS = [op for op in Op if op.is_jump]
WRITABLE = st.integers(R0, R10 - 1)
ANY_REGISTER = st.integers(R0, R10)
BASE = st.one_of(st.sampled_from([R1, R10]), ANY_REGISTER)  # mostly valid pointers


def _offset(draw, base, size):
    if base == R10:  # the verifier bounds stack accesses statically
        return draw(st.integers(-STACK_SIZE, -size))
    return draw(st.one_of(st.integers(0, 40), st.integers(0, 40), IMMEDIATES))


def _alu(draw):
    op = draw(st.sampled_from(ALU_OPS))
    if op in (Op.DIV_IMM, Op.MOD_IMM):
        imm = draw(IMMEDIATES.filter(bool))
    elif op in (Op.LSH_IMM, Op.RSH_IMM):
        imm = draw(st.integers(0, 63))
    else:
        imm = draw(IMMEDIATES)
    return [Insn(op, dst=draw(WRITABLE), src=draw(ANY_REGISTER), imm=imm)]


def _load(draw):
    op = draw(st.sampled_from(LOAD_OPS))
    base = draw(BASE)
    return [Insn(op, dst=draw(WRITABLE), src=base, off=_offset(draw, base, LOAD_SIZES[op]))]


def _store(draw):
    op = draw(st.sampled_from(STORE_OPS))
    base = draw(BASE)
    off = _offset(draw, base, STORE_SIZES[op])
    return [Insn(op, dst=base, src=draw(ANY_REGISTER), off=off, imm=draw(IMMEDIATES))]


def _call(draw):
    insns = []
    if draw(st.booleans()):  # half the time, plausible arguments
        fd = draw(st.sampled_from([ARRAY_FD, HASH_FD, SOCK_FD, MISSING_FD]))
        insns += [
            Insn(Op.MOV_IMM, dst=R1, imm=fd),
            Insn(Op.MOV_IMM, dst=2, imm=draw(st.one_of(st.integers(0, 7), IMMEDIATES))),
            Insn(Op.MOV_IMM, dst=3, imm=draw(IMMEDIATES)),
        ]
    helper = draw(st.sampled_from(HELPER_IDS * 3 + [UNKNOWN_HELPER]))
    insns.append(Insn(Op.CALL, imm=helper))
    # The call clobbers r1-r5; initialise them again so later code may read them.
    insns += [Insn(Op.MOV_IMM, dst=reg, imm=draw(IMMEDIATES)) for reg in range(R1, 6)]
    return insns


@st.composite
def verified_programs(draw):
    """Random programs the verifier accepts: every op, forward jumps only."""
    flat = []
    for reg in range(R0, R10):
        if reg == R1:
            continue  # the context pointer
        if draw(st.booleans()):
            flat.append(Insn(Op.MOV_REG, dst=reg, src=draw(st.sampled_from([R1, R10]))))
        else:
            flat.append(Insn(Op.MOV_IMM, dst=reg, imm=draw(IMMEDIATES)))
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(
            st.sampled_from(["alu"] * 4 + ["load", "store"] * 2 + ["jump", "call", "exit"])
        )
        if kind == "alu":
            flat += _alu(draw)
        elif kind == "load":
            flat += _load(draw)
        elif kind == "store":
            flat += _store(draw)
        elif kind == "call":
            flat += _call(draw)
        elif kind == "exit":
            flat.append(Insn(Op.EXIT))
        else:  # the offset is fixed once the program's length is known
            op = draw(st.sampled_from(JUMP_OPS))
            skip = draw(st.one_of(st.integers(0, 3), st.integers(0, 10_000)))
            flat.append((op, draw(ANY_REGISTER), draw(ANY_REGISTER), draw(IMMEDIATES), skip))
    flat.append(Insn(Op.EXIT))
    last = len(flat) - 1
    insns = []
    for index, item in enumerate(flat):
        if isinstance(item, tuple):
            op, dst, src, imm, skip = item
            item = Insn(op, dst=dst, src=src, imm=imm, off=min(skip, last - index - 1))
        insns.append(item)
    program = Program(insns=tuple(insns), prog_type=ProgramType.XDP, name="random")
    verify(program)
    return program


CONTEXTS = st.one_of(
    st.binary(max_size=48),
    st.builds(
        programs.encode_descriptor_ctx,
        st.integers(0, 7),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 1),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(programs.encode_packet_ctx, st.integers(0, 9000), st.integers(0, 8)),
)
DIFFERENTIAL = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@DIFFERENTIAL
@given(program=verified_programs(), data=CONTEXTS, spec=WORLDS)
def test_compiled_matches_reference_on_random_programs(program, data, spec):
    assert_same(program, data, spec)


# -- the stock programs -----------------------------------------------------------
BUILDERS = {
    "sproxy_redirect": lambda: programs.sproxy_redirect(SOCK_FD),
    "sproxy_filtered_redirect": lambda: programs.sproxy_filtered_redirect(HASH_FD, SOCK_FD),
    "sproxy_l7_metrics": lambda: programs.sproxy_l7_metrics(ARRAY_FD),
    "eproxy_l3_metrics": lambda: programs.eproxy_l3_metrics(ARRAY_FD),
    "xdp_fib_forward": programs.xdp_fib_forward,
    "tc_fib_forward": programs.tc_fib_forward,
}


def test_every_program_builder_is_differentially_tested():
    builders = {
        name
        for name, function in inspect.getmembers(programs, inspect.isfunction)
        if function.__module__ == programs.__name__
        and function.__annotations__.get("return") == "Program"
    }
    assert builders == set(BUILDERS)


@DIFFERENTIAL
@given(name=st.sampled_from(sorted(BUILDERS)), data=CONTEXTS, spec=WORLDS)
def test_compiled_matches_reference_on_stock_programs(name, data, spec):
    assert_same(BUILDERS[name](), data, spec)


def test_compiled_matches_reference_on_every_op():
    """One in-bounds program that uses every op, every helper and a fault."""
    body = [
        Insn(Op.MOV_IMM, dst=2, imm=0x1234_5678_9ABC),
        Insn(Op.MOV_REG, dst=3, src=2),
        Insn(Op.MOV_IMM, dst=4, imm=3),
        Insn(Op.MOV_IMM, dst=5, imm=0),
        Insn(Op.MOV_IMM, dst=8, imm=0),
    ]
    for op in ALU_OPS:
        imm = 5 if op not in (Op.LSH_IMM, Op.RSH_IMM) else 7
        src = 5 if op in (Op.DIV_REG, Op.MOD_REG) else 4
        body.append(Insn(op, dst=3, src=src, imm=imm))
        if op in (Op.DIV_REG, Op.MOD_REG):
            body.append(Insn(op, dst=2, src=4))
    for op, size in STORE_SIZES.items():
        body.append(Insn(op, dst=R10, src=3, off=-16 - size, imm=-7))
        # In bounds only when the context adds its 32 bytes to the stack's.
        body.append(Insn(op, dst=R1, src=2, off=STACK_SIZE + 24, imm=99))
    for op, size in LOAD_SIZES.items():
        body += [
            Insn(op, dst=6, src=R10, off=-16 - size),
            Insn(op, dst=7, src=R1, off=1),
            Insn(Op.XOR_REG, dst=3, src=6),
            Insn(Op.ADD_REG, dst=3, src=7),
        ]
    for bit, (op, value) in enumerate((op, v) for op in JUMP_OPS for v in (5, 6, 7)):
        body += [  # below, equal to and above the immediate and the register
            Insn(Op.MOV_IMM, dst=6, imm=value),
            Insn(Op.MOV_IMM, dst=7, imm=6),
            Insn(op, dst=6, src=7, imm=6, off=1),
            Insn(Op.ADD_IMM, dst=3, imm=1 << bit),
        ]
    body.append(Insn(Op.ADD_REG, dst=8, src=3))
    for helper in HELPER_IDS:
        body += [
            Insn(Op.MOV_IMM, dst=R1, imm={60: SOCK_FD, 200: ARRAY_FD}.get(helper, HASH_FD)),
            Insn(Op.MOV_IMM, dst=2, imm=1),
            Insn(Op.MOV_IMM, dst=3, imm=41),
            Insn(Op.CALL, imm=helper),
            Insn(Op.ADD_REG, dst=8, src=R0),
        ]
    body += [Insn(Op.MOV_REG, dst=R0, src=8), Insn(Op.EXIT)]
    program = Program(insns=tuple(body), prog_type=ProgramType.SK_MSG, name="every_op")
    spec = {
        "array": [1, 2, 3, 4],
        "hash": {1: 10},
        "sock": [1],
        "now_ns": 77,
        "prandom": 12345,
        "fib": "hit",
        "flow": True,
    }
    assert_same(program, bytes(range(32)), spec)
    compiled = observe(Vm.run, program, bytes(range(32)), spec)
    assert compiled[0][0] == "ok"
    # Too small a context: the context stores fault, with the same message.
    faulted = observe(Vm.run, program, b"", spec)
    assert faulted[0][0] == "fault"
    assert_same(program, b"", spec)
    # An unknown helper faults only when its call is reached.
    unknown = Assembler("unknown").mov_imm(R0, 1).jeq_imm(R0, 1, "out")
    unknown.call(UNKNOWN_HELPER).label("out").exit_()
    assert Vm().run(unknown.build(ProgramType.XDP)).return_value == 1


# -- hooks: a chain of programs, fired as the reference runs them ---------------
def _world_state(scratch, maps):
    array, hashmap, sockmap = maps
    endpoint = scratch.redirect_endpoint
    return (
        [array.lookup(index) for index in range(4)],
        sorted((key, hashmap.lookup(key)) for key in hashmap.keys()),
        sorted((key, sockmap.lookup(key).name) for key in sockmap.keys()),
        endpoint.name if endpoint is not None else None,
        scratch.redirect_ifindex,
        list(scratch.printk_log),
        scratch.prandom_state,
    )


def _copy(program, prog_type=None):
    """The same code in a new object, which may take a freed object's id."""
    return Program(
        insns=program.insns, prog_type=prog_type or program.prog_type, name=program.name
    )


def _fire_schedule(chain):
    """Yield (step, program) pairs: a fire of the chain, a detach and
    re-attach of its head, then two single programs, the second attached
    after the first was detached and freed."""
    yield "fire", None
    yield "detach", chain[0]
    yield "attach", chain[0]
    yield "fire", None
    for program in chain:
        yield "detach", program
    yield "attach-copy", chain[-1]
    yield "fire", None
    yield "detach-copy", None
    yield "attach-copy", chain[0]
    yield "fire", None


def hook_fires(chain, data, spec):
    """Every fire's outcome through one HookPoint, then the hook's counters
    and the world."""
    vm, scratch, maps = build_world(spec)
    hook = HookPoint("hook@test", chain[0].prog_type, vm)
    for program in chain:
        hook.attach(program)
    runs = []
    inner = vm.run

    def counted(program, data=b"", scratch=None):
        runs.append(program)
        return inner(program, data, scratch)

    vm.run = counted
    outcomes, copy = [], None
    for step, program in _fire_schedule(chain):
        if step == "attach":
            hook.attach(program)
        elif step == "detach":
            hook.detach(program)
        elif step == "attach-copy":
            copy = _copy(program)
            hook.attach(copy)
        elif step == "detach-copy":
            hook.detach(copy)
            copy = None  # freed here: nothing else refers to it
        else:
            del runs[:]
            try:
                run = hook.fire(data, scratch)
            except Exception as error:
                outcomes.append(("fault", type(error), str(error)))
                assert len(runs) <= len(hook.programs)
            else:
                assert run.scratch is scratch
                outcomes.append(("ok", run.verdict, run.insns_executed))
                assert len(runs) == len(hook.programs)  # one Vm.run per program
    return outcomes, (hook.fire_count, hook.total_insns), _world_state(scratch, maps)


def reference_fires(chain, data, spec):
    """The same schedule, each program interpreted on fresh memory."""
    vm, scratch, maps = build_world(spec)
    attached = list(chain)
    outcomes, fires, insns_total = [], 0, 0
    for step, program in _fire_schedule(chain):
        if step in ("attach", "attach-copy"):
            attached.append(program)
        elif step == "detach":
            attached.remove(program)
        elif step == "detach-copy":
            attached.pop()
        else:
            verdict = insns = 0
            try:
                for program in attached:
                    result = reference_run(vm, program, data, scratch)
                    verdict = result.return_value
                    insns += result.insns_executed
            except Exception as error:
                outcomes.append(("fault", type(error), str(error)))
            else:
                outcomes.append(("ok", verdict, insns))
                fires += 1
                insns_total += insns
    return outcomes, (fires, insns_total), _world_state(scratch, maps)


# Two storing programs: the second reads what the first stored, which it
# sees only if the two shared one memory.
_STORES_THEN_LOADS = [
    Program(
        insns=(
            Insn(Op.MOV_IMM, dst=2, imm=0x1234),
            Insn(Op.ST64, dst=R10, src=2, off=-8),
            Insn(Op.ST64, dst=R1, src=2, off=0),
            Insn(Op.MOV_IMM, dst=R0, imm=1),
            Insn(Op.EXIT),
        ),
        prog_type=ProgramType.XDP,
        name="stores",
    ),
    Program(
        insns=(
            Insn(Op.LD64, dst=R0, src=R10, off=-8),
            Insn(Op.LD64, dst=2, src=R1, off=0),
            Insn(Op.ADD_REG, dst=R0, src=2),
            Insn(Op.ST64, dst=R10, src=R0, off=-16),
            Insn(Op.EXIT),
        ),
        prog_type=ProgramType.XDP,
        name="loads",
    ),
]
_METRICS_THEN_REDIRECT = [
    programs.sproxy_l7_metrics(ARRAY_FD),
    programs.sproxy_filtered_redirect(HASH_FD, SOCK_FD),
]
_HOOK_WORLD = {
    "array": [1, 2, 3, 4],
    "hash": {(1 << 16) | 2: 1},
    "sock": [2],
    "now_ns": 5,
    "prandom": 7,
    "fib": "hit",
    "flow": True,
}
HOOK_CHAINS = st.lists(
    st.one_of(verified_programs(), st.sampled_from(sorted(BUILDERS)).map(lambda n: BUILDERS[n]())),
    min_size=1,
    max_size=3,
).map(lambda chain: [_copy(program, chain[0].prog_type) for program in chain])


@DIFFERENTIAL
@given(chain=HOOK_CHAINS, data=CONTEXTS, spec=WORLDS)
@example(chain=_STORES_THEN_LOADS, data=bytes(8), spec=_HOOK_WORLD)
@example(
    chain=_METRICS_THEN_REDIRECT,
    data=programs.encode_descriptor_ctx(2, 0, 64, 1),
    spec=_HOOK_WORLD,
)
def test_hook_fires_match_reference_runs(chain, data, spec):
    assert hook_fires(chain, data, spec) == reference_fires(chain, data, spec)


def test_stores_are_not_seen_by_the_next_program():
    outcomes = hook_fires(_STORES_THEN_LOADS, bytes(8), _HOOK_WORLD)[0]
    assert outcomes[0] == ("ok", 0, 10)


def test_hook_loads_at_attach_and_fires_without_lookups():
    vm, scratch, _ = build_world(_HOOK_WORLD)
    hook = HookPoint("sk_msg@fn", ProgramType.SK_MSG, vm)
    for program in _METRICS_THEN_REDIRECT:
        hook.attach(program)
    assert len(vm._compiled) == 2

    def no_load(program):  # pragma: no cover - failing path
        raise AssertionError("fire must not load")

    vm.load = no_load
    vm._by_identity.clear()
    run = hook.fire(programs.encode_descriptor_ctx(2, 0, 64, 1), scratch)
    assert (run.verdict, scratch.redirect_endpoint.name) == (SK_PASS, "sock-2")


# -- bound maps fault exactly as their helpers ------------------------------------
def _bound_outcome(execute, program, data, spec, change):
    """Load ``program`` (binding its maps), apply ``change`` to the world,
    then run it."""
    vm, scratch, maps = build_world(spec)
    vm.load(program)
    change(vm, scratch)
    try:
        result = execute(vm, program, data, scratch)
    except Exception as error:
        outcome = ("fault", type(error), str(error))
    else:
        outcome = ("ok", result.return_value, result.insns_executed)
    return outcome, _world_state(scratch, maps)


def _close(fd):
    return lambda vm, scratch: vm.map_registry.close(fd)


def _other_registry(vm, scratch):
    """A registry with the same fds holding other maps (and a missing one)."""
    other = MapRegistry()
    array, hashmap = ArrayMap(4, "array"), HashMap(4, "hash")
    other.create(array)
    other.create(hashmap)
    hashmap.update((1 << 16) | 2, 9)
    scratch.map_registry = other


@pytest.mark.parametrize(
    "change",
    [lambda vm, scratch: None, _close(ARRAY_FD), _close(HASH_FD), _close(SOCK_FD), _other_registry],
    ids=["unchanged", "closed-array", "closed-hash", "closed-sock", "other-registry"],
)
@pytest.mark.parametrize(
    "program",
    [
        *_METRICS_THEN_REDIRECT,
        programs.sproxy_redirect(SOCK_FD),
        programs.sproxy_redirect(ARRAY_FD),  # wrong map type
        programs.sproxy_l7_metrics(HASH_FD),  # wrong map type
        programs.sproxy_filtered_redirect(MISSING_FD, SOCK_FD),  # missing fd
        programs.sproxy_l7_metrics(MISSING_FD),
    ],
    ids=[
        "metrics",
        "filtered",
        "redirect",
        "redirect-on-array",
        "metrics-on-hash",
        "filtered-missing-fd",
        "metrics-missing-fd",
    ],
)
def test_bound_maps_fault_like_their_helpers(program, change):
    data = programs.encode_descriptor_ctx(2, 0, 64, 1)
    compiled = _bound_outcome(Vm.run, program, data, _HOOK_WORLD, change)
    reference = _bound_outcome(reference_run, program, data, _HOOK_WORLD, change)
    assert compiled == reference


# -- verify on first run, and the compile cache ----------------------------------
def test_run_verifies_before_the_first_execution():
    backward = Program(
        insns=(Insn(Op.MOV_IMM, dst=R0, imm=0), Insn(Op.JA, off=-1), Insn(Op.EXIT)),
        prog_type=ProgramType.XDP,
    )
    uninitialised = Assembler("uninit").mov_reg(R0, 3).exit_().build(ProgramType.XDP)
    vm = Vm()
    for program, reason in ((backward, "backward jump"), (uninitialised, "uninitialized")):
        for _ in range(2):  # a rejected program is not cached as runnable
            with pytest.raises(VerifierError, match=reason):
                vm.run(program)


def test_reused_program_ids_never_run_stale_code():
    """A new program at a freed program's address runs its own code."""
    vm = Vm()
    wrong = 0
    for value in range(200):  # each program is freed as soon as it has run
        program = Assembler("ret").mov_imm(R0, value).exit_().build(ProgramType.XDP)
        wrong += vm.run(program).return_value != value
        program = None
    assert wrong == 0


def test_identical_programs_from_two_pods_share_one_function():
    vm = Vm()
    registry = vm.map_registry
    sock_fd = registry.create(SockMap(4))
    other_fd = registry.create(SockMap(4))
    registry.get(other_fd).update(2, Endpoint("other"))
    pods = [HookPoint(f"sk_msg@fn-{i}", ProgramType.SK_MSG, vm) for i in range(2)]
    for hook in pods:
        hook.attach(programs.sproxy_redirect(sock_fd))
    first, second = (hook.programs[0] for hook in pods)
    assert first is not second and first == second
    ctx = programs.encode_descriptor_ctx(2, 0, 64, 1)
    for hook in pods:
        hook.fire(data=ctx)
    assert len(vm._compiled) == 1
    assert vm._by_identity[id(first)][1] is vm._by_identity[id(second)][1]

    # A program that differs only in its map fd is distinct code.
    distinct = programs.sproxy_redirect(other_fd)
    assert vm.run(distinct, data=ctx).scratch.redirect_endpoint.name == "other"
    assert vm.run(first, data=ctx).scratch.redirect_endpoint is None
    assert len(vm._compiled) == 2
    assert vm._by_identity[id(distinct)][1] is not vm._by_identity[id(first)][1]


def test_identity_entries_are_dropped_with_their_programs():
    vm = Vm()
    program = Assembler("ret").mov_imm(R0, 1).exit_().build(ProgramType.XDP)
    vm.run(program)
    assert id(program) in vm._by_identity
    key = id(program)
    del program
    gc.collect()
    assert key not in vm._by_identity
    assert len(vm._compiled) == 1  # the content-keyed function stays


# -- context encoders -----------------------------------------------------------
def _old_descriptor_ctx(next_fn_id, shm_offset, payload_len, sender_id, generation=0):
    return (
        next_fn_id.to_bytes(4, "little")
        + shm_offset.to_bytes(8, "little")
        + payload_len.to_bytes(4, "little")
        + sender_id.to_bytes(4, "little")
        + generation.to_bytes(4, "little")
    )


def _old_packet_ctx(pkt_len, ingress_ifindex):
    return pkt_len.to_bytes(4, "little") + ingress_ifindex.to_bytes(4, "little") + b"\x00" * 8


def _encode_or_overflow(encode, fields):
    try:
        return encode(*fields)
    except OverflowError:
        return OverflowError


EDGES = (0, 2**32 - 1, 2**64 - 1, 2**64, -1)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("value", EDGES)
def test_descriptor_ctx_matches_to_bytes_encoding(position, value):
    fields = [1, 2, 3, 4, 5]
    fields[position] = value
    new = _encode_or_overflow(programs.encode_descriptor_ctx, fields)
    assert new == _encode_or_overflow(_old_descriptor_ctx, fields)
    assert new is OverflowError or len(new) == programs.DESC_CTX_BYTES


@pytest.mark.parametrize("position", range(2))
@pytest.mark.parametrize("value", EDGES)
def test_packet_ctx_matches_to_bytes_encoding(position, value):
    fields = [1500, 3]
    fields[position] = value
    new = _encode_or_overflow(programs.encode_packet_ctx, fields)
    assert new == _encode_or_overflow(_old_packet_ctx, fields)
    assert new is OverflowError or len(new) == programs.PKT_CTX_BYTES


def test_descriptor_ctx_default_generation_is_zero():
    assert programs.encode_descriptor_ctx(1, 2, 3, 4) == _old_descriptor_ctx(1, 2, 3, 4)
