"""The step debugger's former name. The simulator is the step debugger
(`sim.Simulator`, with `sim.Breakpoint`); perfbench's workloads.py and
tracing.py still construct it as a `DebugSession`."""

from .sim import Simulator

DebugSession = Simulator
