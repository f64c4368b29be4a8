#!/usr/bin/env python
"""Quickstart: the whole Needle flow on a hand-written kernel.

Builds a small loop kernel in the mini SSA IR, profiles its Ball-Larus
paths, forms the hot path region and its Braid, lowers the Braid to a
software frame, maps it on the CGRA, and simulates whole-kernel offload.

Run:  python examples/quickstart.py
"""

from repro.frames import FrameExecutor, build_frame
from repro.interp import Interpreter, TraceRecorder
from repro.ir import Constant, I32, IRBuilder, Module, format_function, verify_function
from repro.profiling import derive_path_profile, rank_paths
from repro.regions import build_braids
from repro.sim import OffloadSimulator


def build_kernel():
    """saturating histogram: for i in 0..n:
    v = data[i]; if v > 200: hist[255]++ else hist[v//16] += weight(v)"""
    m = Module("quickstart")
    data = m.add_global("data", I32, 512, init=[(i * 37) % 256 for i in range(512)])
    hist = m.add_global("hist", I32, 256)

    fn = m.add_function("histogram", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    saturate = b.add_block("saturate")
    normal = b.add_block("normal")
    latch = b.add_block("latch")
    exit_ = b.add_block("exit")

    b.set_block(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    total = b.phi(I32, "total")
    in_range = b.icmp("slt", i, fn.arg("n"))
    b.condbr(in_range, body, exit_)

    b.set_block(body)
    addr = b.gep(data, i, 4)
    v = b.load(I32, addr)
    big = b.icmp("sgt", v, 200)
    b.condbr(big, saturate, normal)

    b.set_block(saturate)
    sat_addr = b.gep(hist, 255, 4)
    old_s = b.load(I32, sat_addr)
    b.store(b.add(old_s, 1), sat_addr)
    b.br(latch)

    b.set_block(normal)
    bucket = b.sdiv(v, 16)
    weight = b.add(b.mul(v, 3), 1)
    n_addr = b.gep(hist, bucket, 4)
    old_n = b.load(I32, n_addr)
    b.store(b.add(old_n, weight), n_addr)
    b.br(latch)

    b.set_block(latch)
    total_next = b.add(total, 1)
    i_next = b.add(i, 1)
    b.br(header)

    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(latch, i_next)
    total.add_incoming(entry, Constant(I32, 0))
    total.add_incoming(latch, total_next)

    b.set_block(exit_)
    b.ret(total)
    verify_function(fn)
    return m, fn


def main():
    m, fn = build_kernel()
    print("=== the kernel ===")
    print(format_function(fn))

    # 1. record the block trace, derive the Ball-Larus path profile from it
    recorder = TraceRecorder([fn])
    interp = Interpreter(m, tracer=recorder)
    result = interp.run("histogram", [400])
    profile = derive_path_profile(fn, recorder.traces[fn])
    print("\n=== profiling ===")
    print("kernel returned:", result)
    print("executed paths:", profile.executed_paths,
          "of", profile.numbering.total_paths, "static paths")

    # 2. rank paths by Pwt and show the winners
    ranked = rank_paths(profile)
    for p in ranked:
        print("  path %d: freq=%d ops=%d coverage=%.1f%%  blocks=%s"
              % (p.path_id, p.freq, p.ops, p.coverage * 100,
                 "->".join(blk.name for blk in p.blocks)))

    # 3. braid the hot same-entry/exit paths and lower to a frame
    braids = build_braids(fn, ranked)
    braid = braids[0]
    frame = build_frame(braid.region)
    print("\n=== braid frame ===")
    print("merged paths:", braid.n_paths, " coverage: %.1f%%" % (braid.coverage * 100))
    print("frame ops:", frame.op_count, " guards:", frame.guard_count,
          " psi-selects:", len(frame.psis), " cancelled phis:", frame.cancelled_phis)
    print("live-ins:", [v.name for v in frame.live_ins])
    print("live-outs:", [v.name for v in frame.live_outs])

    # 4. execute the frame once, atomically, against real memory
    ex = FrameExecutor(interp.memory, interp.global_base)
    live_ins = {phi: 0 for phi in braid.region.entry.phis}
    live_ins[fn.arg("n")] = 400
    outcome = ex.run(frame, live_ins)
    print("frame run:", "success" if outcome.success else "guard failure",
          "- stores logged:", outcome.stores_logged)

    # 5. simulate whole-kernel offload (Fig. 9 / Fig. 10 style numbers)
    sim = OffloadSimulator()
    outcome = sim.simulate_offload(
        "quickstart", profile, frame, "oracle", recorder.traces[fn],
        coverage=braid.coverage,
    )
    print("\n=== offload simulation ===")
    print("baseline host cycles : %.0f" % outcome.baseline_cycles)
    print("Needle cycles        : %.0f" % outcome.needle_cycles)
    print("performance improvement: %.1f%%" % (outcome.performance_improvement * 100))
    print("energy reduction       : %.1f%%" % (outcome.energy_reduction * 100))


if __name__ == "__main__":
    main()
