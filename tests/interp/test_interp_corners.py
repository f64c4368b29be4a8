import pytest

from repro.interp import (
    Interpreter,
    InterpreterError,
    TraceRecorder,
    Tracer,
)
from repro.ir import (
    Constant,
    I32,
    IRBuilder,
    Module,
    UndefValue,
)


def test_undef_operand_reads_zero():
    m = Module()
    fn = m.add_function("f", [], I32)
    b = IRBuilder(fn)
    b.set_block(b.add_block("entry"))
    x = b.add(UndefValue(I32), 5)
    b.ret(x)
    assert Interpreter(m).run("f", []) == 5


def test_tracer_hooks_fire_per_event(counted_loop):
    m, fn = counted_loop
    rec = TraceRecorder([fn])

    class Counting(Tracer):
        def __init__(self):
            self.blocks = 0
            self.branches = 0
            self.entries = 0
            self.exits = 0
            self.mems = 0

        def on_block(self, *a):
            self.blocks += 1

        def on_branch(self, *a):
            self.branches += 1

        def on_function_entry(self, *a):
            self.entries += 1

        def on_function_exit(self, *a):
            self.exits += 1

        def on_memory(self, *a):
            self.mems += 1

    c = Counting()
    Interpreter(m, tracer=rec).run("loop", [5])
    Interpreter(m, tracer=c).run("loop", [5])
    trace = rec.traces[fn]
    assert c.blocks == len([b for b in trace.blocks if b is not None])
    assert c.mems == len(trace.memory)
    assert c.entries == 1 and c.exits == 1
    assert c.branches > 0


def test_executed_instruction_accounting(counted_loop):
    m, fn = counted_loop
    interp = Interpreter(m)
    interp.run("loop", [10])
    first = interp.executed_instructions
    interp.run("loop", [10])
    assert interp.executed_instructions == 2 * first


def test_phi_without_incoming_for_pred_raises():
    m = Module()
    fn = m.add_function("f", [], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    nxt = b.add_block("next")
    b.set_block(entry)
    b.br(nxt)
    b.set_block(nxt)
    phi = b.phi(I32)
    # deliberately give the phi a wrong incoming block
    phi.add_incoming(nxt, Constant(I32, 1))
    b.ret(phi)
    with pytest.raises(InterpreterError, match="no incoming"):
        Interpreter(m).run("f", [])


def test_address_of_unknown_global(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    with pytest.raises(KeyError):
        interp.address_of("missing")


def test_global_initializer_materialised(array_sum):
    m, _ = array_sum
    interp = Interpreter(m)
    base = interp.address_of("data")
    assert interp.memory.read_array(base, I32, 4) == [0, 1, 2, 3]
