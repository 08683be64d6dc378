// Whole-epoch snapshots of the serving state. A snapshot file captures one
// published ViewService epoch — the views, the index-build configuration,
// and every PatternIndex posting — so a restarted process can rebuild the
// exact in-memory index by DECODING instead of re-running the isomorphism
// cross-product (the expensive part of PatternIndex::Build). Snapshot files
// are epoch-tagged (`snapshot-<epoch>.gvxs`); recovery loads the newest one
// that validates and replays the admission WAL (store/wal.h) on top.
//
// File layout (store/codec.h conventions — every record CRC-framed):
//   header(kSnapshot)
//   meta record:     epoch, match options, database_indexed, counts
//   view records:    one per label view
//   posting records: one per canonical code (labels, tier positions,
//                    per-label coverage bitsets, database postings)
//   footer record:   record counts again (truncation at a record boundary
//                    is detected, not silently accepted)
//
// Writes are atomic (util/file_io.h AtomicWriteFile: `<path>.tmp`, fsync,
// rename, directory fsync), so a crash mid-save never corrupts an existing
// snapshot. Loads validate everything before returning — a corrupt file
// yields an error, never a partial SnapshotData.
//
// Thread-safety: free functions; callers serialize writes per path (the
// ViewService holds its writer mutex across Save/Compact).

#ifndef GVEX_STORE_SNAPSHOT_H_
#define GVEX_STORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "explain/explanation.h"
#include "pattern/matcher.h"
#include "util/status.h"

namespace gvex {

/// One label's coverage bitset (64-bit words over that label view's
/// subgraph list). Immutable once built and shared by pointer.
using CoverageWords = std::shared_ptr<const std::vector<uint64_t>>;

/// Per-label coverage bitsets of one posting: (label, words) pairs in
/// strictly ascending label order — a flat vector, so copying a posting's
/// bitsets is one allocation. Each (code, label) bitset is its own shared
/// pointer, so the in-memory index (PatternPostings), the snapshot codec
/// (StoredPostings) and successive index epochs (PatternIndex::Apply)
/// exchange postings without copying a single bitset word — an admission
/// only allocates words for the labels it changed. A null pointer encodes
/// like an empty bitset.
using CoverageBits = std::vector<std::pair<int, CoverageWords>>;

/// `label`'s entry in `bits` (binary search), or null when absent.
const CoverageWords* FindCoverage(const CoverageBits& bits, int label);

/// Content equality: same labels, same words (pointers may differ).
bool CoverageBitsEqual(const CoverageBits& a, const CoverageBits& b);

/// On-disk mirror of one PatternIndex posting (serve/pattern_index.h
/// converts to and from this struct). Owning the mirror here decouples the
/// file format from the in-memory index layout.
struct StoredPostings {
  std::string code;                ///< canonical pattern code (the key)
  std::vector<int> labels;         ///< labels carrying the code, ascending
  std::map<int, int> tier_position;
  /// Every pointer is non-null after a successful decode.
  CoverageBits subgraph_bits;
  std::vector<int> db_graphs;
};

/// Content equality of two postings (coverage words compared by value).
bool operator==(const StoredPostings& a, const StoredPostings& b);
inline bool operator!=(const StoredPostings& a, const StoredPostings& b) {
  return !(a == b);
}

/// Everything one snapshot file holds.
struct SnapshotData {
  uint64_t epoch = 0;
  /// Match semantics the postings were computed with — a loaded index must
  /// answer fallback (non-indexed) queries with the same options.
  MatchOptions match;
  bool database_indexed = false;
  std::map<int, ExplanationView> views;
  /// Sorted by code (deterministic file bytes for identical state).
  std::vector<StoredPostings> postings;
};

/// One incremental (delta) snapshot: only the views admitted (or replaced)
/// since `parent_epoch`, the epoch of the previously persisted image (a
/// full snapshot or an earlier delta). Chains `base + delta*` are resolved
/// by PlanRecovery (store/recovery.h): a delta attaches iff its parent is
/// exactly the chain tip so far. Deltas carry no postings — applying one
/// changes the view set, so recovery rebuilds the index over the merged
/// views (WAL replay onto a pure base instead re-checks only the replayed
/// labels, starting from the base's stored postings).
struct DeltaData {
  uint64_t epoch = 0;         ///< epoch this delta persists
  uint64_t parent_epoch = 0;  ///< image it was computed against (< epoch)
  std::map<int, ExplanationView> views;  ///< only the changed labels
};

/// "snapshot-<020 epoch>.gvxs" — zero-padded so lexicographic order is
/// epoch order.
std::string SnapshotFileName(uint64_t epoch);

/// Parses an epoch out of a SnapshotFileName-shaped name (NotFound when the
/// name is not a snapshot file).
Result<uint64_t> ParseSnapshotFileName(const std::string& name);

/// "delta-<020 epoch>.gvxd" — the delta persisting up to `epoch`.
std::string DeltaFileName(uint64_t epoch);

/// Parses an epoch out of a DeltaFileName-shaped name (NotFound when the
/// name is not a delta file).
Result<uint64_t> ParseDeltaFileName(const std::string& name);

/// Serializes / writes a delta (AtomicWriteFile, same atomicity as full
/// snapshots — a crash mid-save never corrupts anything).
std::string SerializeDelta(const DeltaData& data);
Status SaveDelta(const std::string& path, const DeltaData& data);

/// Parses / reads and fully validates a delta (footer-checked; a corrupt
/// file yields an error, never a partial DeltaData).
Result<DeltaData> ParseDelta(const std::string& bytes);
Result<DeltaData> LoadDelta(const std::string& path);

/// Epochs of every delta file in `dir`, ascending. Missing directory is an
/// IOError; a directory without deltas is an empty list.
Result<std::vector<uint64_t>> ListDeltaEpochs(const std::string& dir);

/// Deletes delta files in `dir` with epoch <= `keep_epoch` (compaction
/// folds chains into a full base, making every delta at or below it
/// obsolete). Returns the number removed.
Result<int> PruneDeltas(const std::string& dir, uint64_t keep_epoch);

/// Serializes / writes a snapshot (AtomicWriteFile).
std::string SerializeSnapshot(const SnapshotData& data);
Status SaveSnapshot(const std::string& path, const SnapshotData& data);

/// Parses / reads and fully validates a snapshot.
Result<SnapshotData> ParseSnapshot(const std::string& bytes);
Result<SnapshotData> LoadSnapshot(const std::string& path);

/// Epochs of every snapshot file in `dir`, ascending. Missing directory is
/// an IOError; a directory without snapshots is an empty list.
Result<std::vector<uint64_t>> ListSnapshotEpochs(const std::string& dir);

/// Deletes snapshot files in `dir` with epoch < `keep_epoch` (compaction
/// hygiene). Returns the number removed.
Result<int> PruneSnapshots(const std::string& dir, uint64_t keep_epoch);

}  // namespace gvex

#endif  // GVEX_STORE_SNAPSHOT_H_
