#!/usr/bin/env python
"""Bring your own kernel: analyse a custom loop written in the workload DSL.

The same declarative vocabulary the 29-workload suite uses is available to
describe your own hot loop, after which the full Needle pipeline (profile ->
rank -> braid -> frame -> simulate) applies unchanged.

Run:  python examples/custom_kernel_dsl.py
"""

from repro.frames import build_frame
from repro.interp import Interpreter, TraceRecorder
from repro.profiling import derive_path_profile, rank_paths
from repro.regions import build_braids
from repro.sim import OffloadSimulator
from repro.workloads import (
    Arith,
    ArraySpec,
    If,
    LoadVal,
    Reset,
    StoreVal,
    build_loop_kernel,
)


def main():
    # An image-filter-flavoured kernel: per pixel, a 3-tap blur plus an
    # edge-enhancement arm taken only on high-contrast pixels.
    segments = [
        Reset("pix"),
        LoadVal("img", dst="left", offset=0),
        LoadVal("img", dst="mid", offset=1),
        LoadVal("img", dst="right", offset=2),
        Arith(4, use="left", chained=False),
        Arith(4, use="mid", chained=False, acc="pix"),
        Arith(4, use="right", chained=False, acc="pix"),
        If(
            ("bit", "mid", 6),  # high-contrast pixels get the expensive arm
            then=[Arith(10, use="mid", chained=False, acc="pix")],
            els=[Arith(3, chained=False, acc="pix")],
        ),
        StoreVal("out", value="pix"),
    ]
    module, fn = build_loop_kernel(
        "custom",
        "blur_enhance",
        segments,
        arrays=[
            ArraySpec("img", 2048, init=[(i * 73) % 256 for i in range(2048)]),
            ArraySpec("out", 2048),
        ],
        int_accs=("acc", "pix"),
        return_var="pix",
    )

    recorder = TraceRecorder([fn])
    Interpreter(module, tracer=recorder).run(fn, [1024])
    profile = derive_path_profile(fn, recorder.traces[fn])
    ranked = rank_paths(profile)

    print("paths executed:", profile.executed_paths)
    for p in ranked[:4]:
        print("  path %-3d cov %5.1f%%  ops %-3d  %s"
              % (p.path_id, p.coverage * 100, p.ops,
                 "->".join(b.name for b in p.blocks)))

    braid = build_braids(fn, ranked)[0]
    frame = build_frame(braid.region)
    print("\nbraid coverage %.1f%% over %d ops (%d guards, %d psi-selects)"
          % (braid.coverage * 100, frame.op_count, frame.guard_count,
             len(frame.psis)))

    outcome = OffloadSimulator().simulate_offload(
        "custom", profile, frame, "oracle", recorder.traces[fn],
        coverage=braid.coverage,
    )
    print("offload: %+.1f%% performance, %+.1f%% energy"
          % (outcome.performance_improvement * 100,
             outcome.energy_reduction * 100))


if __name__ == "__main__":
    main()
