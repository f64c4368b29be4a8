"""Concrete execution of the mini IR: memory model, interpreter, tracing."""

from .memory import Memory, MemoryError_
from .events import FunctionTrace, TraceRecorder, Tracer
from .interpreter import FuelExhausted, Interpreter, InterpreterError
from .stats import OpMix, OpMixTracer

__all__ = [
    "FuelExhausted",
    "FunctionTrace",
    "Interpreter",
    "InterpreterError",
    "Memory",
    "MemoryError_",
    "OpMix",
    "OpMixTracer",
    "TraceRecorder",
    "Tracer",
]
