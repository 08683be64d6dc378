// The host-speed reference: a fixed computation, independent of the
// library, that the workloads run while they are timed (explain: between
// calls on the timed thread; serve: on the client's main thread beside the
// connections).
//
// On a shared host the speed of one vCPU moves by a third and more over
// minutes (a busy hyperthread sibling, the host's clock), with no CPU steal
// to show for it. The reference moves with it, so run.py scales every gated
// timing by REFERENCE_MS over the run's median reference time: a gated
// time reads as "on a host where the reference takes REFERENCE_MS". Code
// under src/ cannot change the reference.

#ifndef GVEX_PERFBENCH_CALIBRATE_H_
#define GVEX_PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// Runs the reference once and returns the calling thread's CPU time for
/// it, in ms (about 8 on a 4-vCPU Xeon VM, run as the workloads run it).
/// About half of it is arithmetic on data in cache (six rounds of a
/// 3-layer GCN-like forward pass over a 192-node graph), half a chain of
/// dependent loads that each miss the caches and the TLB: compute and
/// memory latency, which a busy sibling slows by very different amounts.
double ReferenceMs();

}  // namespace perfbench

#endif  // GVEX_PERFBENCH_CALIBRATE_H_
