// Synthetic net workload: the request mix gvex_loadgen, the net bench,
// and the socket tests all drive — rendered against a LOCAL mirror of the
// server's synthetic store so every read request carries its exact
// expected response. Server and client each call MakeSyntheticStore with
// the SAME seed/shape (deterministic by construction), which is what
// makes byte-level verification possible without shipping fixtures.
//
// The admit entries re-admit VersionedView(store, label, 0) — the
// IDENTITY version of the label's view. Each one costs the full admission
// path (WAL append, index update, epoch publish) but leaves the served
// content unchanged, so read responses stay byte-stable no matter how
// many admits from how many connections interleave. That is the trick
// that lets a mixed read/admit workload gate on ZERO divergences.

#ifndef GVEX_NET_WORKLOAD_H_
#define GVEX_NET_WORKLOAD_H_

#include <vector>

#include "net/loadgen.h"
#include "serve/synthetic_store.h"

namespace gvex {

struct SyntheticWorkloadOptions {
  uint64_t seed = 42;
  synthetic::SyntheticStoreOptions store;
  /// Relative weights of the request classes (0 drops the class).
  double read_weight = 1.0;
  double admit_weight = 0.0;
  double stats_weight = 0.0;
  /// `save` answers ok only on a durable service; leave 0 against an
  /// in-memory server or every save counts as a divergence.
  double save_weight = 0.0;
};

/// Builds the mix. `store` must be the same object the server side admits
/// (or a MakeSyntheticStore twin built from the same seed/options).
std::vector<LoadgenRequest> BuildSyntheticMix(
    const synthetic::SyntheticStore& store,
    const SyntheticWorkloadOptions& options);

}  // namespace gvex

#endif  // GVEX_NET_WORKLOAD_H_
