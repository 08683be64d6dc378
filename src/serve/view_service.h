// ViewService: the concurrent, indexed view-serving front end. Wraps a
// PatternIndex in an epoch/RCU-style snapshot so explanation views can be
// admitted live (e.g. published mid-stream from StreamGvex) without ever
// blocking readers, adds a sharded LRU result cache, and executes query
// batches across the shared ThreadPool.
//
// Snapshot discipline: the service holds one `shared_ptr<const Snapshot>`
// (views + index + epoch). Readers atomically load the pointer once per
// query — or once per BATCH, so a batch sees a single consistent epoch —
// and keep the snapshot alive for the duration via shared ownership.
// Writers (AdmitView) serialize on a writer mutex, build the NEXT snapshot
// entirely off to the side, then atomically publish it. The next snapshot
// shares every view and every coverage bitset the admission left alone
// with the current one: copying the views map is O(labels), and the index
// update (PatternIndex::Apply) re-checks only the admitted labels' subgraphs
// plus any code new to the store. A reader therefore observes either
// the previous complete epoch or the new complete epoch, never a torn
// intermediate state; old epochs are reclaimed when their last reader
// drops the shared_ptr (that is the RCU grace period).
//
// Result cache: an LRU keyed by (epoch, query kind, label, canonical
// code), striped into `cache_shards` independently locked shards to keep
// reader contention low. Epochs in the key make invalidation free —
// entries from superseded epochs simply age out.
//
// Thread-safety: ALL public methods are safe to call concurrently from any
// number of threads, including AdmitView racing queries. AdmitView calls
// are serialized internally (admissions are ordered); queries never block
// on admissions and vice versa.
//
// Durability (src/store/): a service constructed via Open(dir) is DURABLE.
// Every admission batch is appended to a write-ahead log (store/wal.h)
// before its snapshot is published; Save() persists the current epoch
// either as a full epoch-tagged snapshot (store/snapshot.h, including the
// index postings, so reopening decodes the index instead of re-running the
// isomorphism cross-product) or as an incremental DELTA holding only the
// views changed since the last persisted image — a size policy picks
// (DurableStoreOptions), so big stores stop paying O(store) I/O per save.
// Compact() folds the WAL and any delta chain into a fresh full snapshot.
// Open(dir) warm-starts from the newest valid snapshot CHAIN (base +
// delta*, resolved by store/recovery.h) plus WAL replay and tolerates torn
// WAL tails — see tests/serve/view_service_recovery_test.cpp and the
// crash/interleaving harness in tests/store/chain_crash_test.cpp.

#ifndef GVEX_SERVE_VIEW_SERVICE_H_
#define GVEX_SERVE_VIEW_SERVICE_H_

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <thread>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "obs/health.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"
#include "serve/pattern_index.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gvex {

/// Durability knobs (only consulted by services created via Open).
struct DurableStoreOptions {
  /// fsync the WAL every N admissions (1 = every admission; larger values
  /// batch fsyncs — a power failure may lose up to N-1 tail admissions, a
  /// process crash loses nothing that was admitted).
  int wal_sync_every = 1;
  /// When > 0, an admission that grows the WAL past this many bytes
  /// triggers a BACKGROUND Compact() (non-overlapping; readers and writers
  /// keep going — compaction only takes the writer lock for the duration
  /// of the snapshot write). 0 disables automatic compaction.
  uint64_t compact_wal_bytes = 0;
  /// Compact() removes snapshot files older than the one it just wrote.
  bool prune_snapshots = true;
  /// Size policy for Save(SaveKind::kAuto): prefer an incremental (delta)
  /// snapshot when a full base exists, the chain is shorter than
  /// `delta_max_chain`, and at most `delta_max_fraction` of the labels
  /// changed since the last persisted image. Otherwise write a full
  /// snapshot (which roots a fresh chain). 0 disables auto-deltas.
  int delta_max_chain = 8;
  /// Changed-labels / total-labels threshold for the auto policy.
  double delta_max_fraction = 0.5;
};

/// Service behavior knobs.
struct ViewServiceOptions {
  /// Index build options applied on every admission (match semantics,
  /// database indexing, build workers).
  PatternIndex::BuildOptions index;
  /// LRU entries per cache shard (0 disables the result cache).
  size_t cache_capacity = 256;
  /// Independently locked cache stripes.
  int cache_shards = 8;
  /// Workers of a PERSISTENT batch-execution pool created at construction.
  /// 0 (default) spins up a transient pool per ExecuteBatch call instead —
  /// fine for occasional large batches, wasteful for many small ones.
  /// Answers are identical either way. Note: the pool's completion barrier
  /// is pool-global, so concurrent ExecuteBatch callers sharing the
  /// persistent pool may wait out each other's shards (throughput
  /// coupling, not a correctness issue).
  int batch_workers = 0;
  /// Durability knobs for Open-created services.
  DurableStoreOptions store;
  /// The `admit_queue` health check reports FAIL when one combining-queue
  /// leader has been active longer than this (a wedged leader starves
  /// every admitter; see obs/health.h).
  double admit_wedge_warn_sec = 30.0;
  /// Test-only: run by the combining leader inside AdmitCombined (under
  /// the writer lock, before anything is logged or published). Lets tests
  /// wedge the admit path deterministically; never set in production.
  std::function<void()> admit_test_hook;
};

/// The query kinds the service answers (mirrors the legacy ViewStore API).
enum class QueryKind {
  kLabels,                    // no arguments
  kPatternsForLabel,          // label
  kGraphsWithPattern,         // label + pattern
  kLabelsOfPattern,           // pattern
  kDatabaseGraphsWithPattern, // pattern + optional label (-1 = all)
  kDiscriminativePatterns,    // label
};

/// One query of a batch.
struct ViewQuery {
  QueryKind kind = QueryKind::kLabels;
  int label = -1;
  /// Meaningful only for the pattern-valued kinds.
  Pattern pattern;
};

/// One query's answer. Exactly one of `ids` / `patterns` is populated,
/// matching the kind; `epoch` is the snapshot the answer was computed on.
struct ViewQueryResult {
  std::vector<int> ids;
  std::vector<Pattern> patterns;
  uint64_t epoch = 0;
};

/// Answer of a MaxCommonSubgraph (`mcs`) query: the explanation subgraph
/// of the label scoring the largest common induced subgraph with the query
/// graph.
struct McsAnswer {
  int graph_index = -1;  ///< owning graph of the best subgraph (-1 = none)
  int size = 0;          ///< nodes in the best common subgraph found
  /// True when every per-subgraph search proved optimality; false means
  /// `size` is a lower bound (the step budget bound somewhere).
  bool exact = true;
  uint64_t epoch = 0;    ///< snapshot the answer was computed on
};

/// What Save() wrote (or would write).
enum class SaveKind {
  kAuto,   ///< size policy: delta when cheap, full otherwise
  kFull,   ///< whole-epoch snapshot (roots a fresh chain)
  kDelta,  ///< incremental: only views changed since the persisted tip
};

/// The outcome of one Save().
struct SaveInfo {
  uint64_t epoch = 0;  ///< epoch the store now persists up to
  bool delta = false;  ///< true when an incremental snapshot was written
  bool wrote = true;   ///< false when the epoch was already persisted
};

/// Service counters. `epoch` / `num_labels` / `num_codes` / `admitted_*`
/// are read from ONE published snapshot, so they are mutually consistent —
/// stats() can never observe an epoch whose admission counters have not
/// been published with it (no torn view mid-batch).
struct ViewServiceStats {
  uint64_t epoch = 0;      ///< Epochs published so far.
  int num_labels = 0;      ///< Labels in the current snapshot.
  int num_codes = 0;       ///< Indexed canonical codes in the snapshot.
  /// Views admitted SINCE THIS SERVICE WAS CONSTRUCTED (or Opened). Like
  /// the cache counters, admission counters are process-lifetime state:
  /// they are not persisted, so a warm-started service restarts them at 0
  /// even though its recovered epoch is non-zero. Under batched admission
  /// several AdmitViews calls may publish as one epoch, so admitted_views
  /// can grow by more than one per epoch.
  uint64_t admitted_views = 0;
  /// AdmitView(s) calls folded into published snapshots (same lifetime
  /// semantics as admitted_views).
  uint64_t admitted_batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Index query-path counters (IndexStats of the CURRENT snapshot's
  /// index; process-lifetime like the cache counters, but reset whenever a
  /// new epoch publishes a freshly built index).
  uint64_t index_fallback_scans = 0;
  uint64_t index_inconsistent_postings = 0;
  uint64_t index_filtered_rejects = 0;
  /// Compactions completed/failed since this service was constructed
  /// (monotone, unlike last_compact_error which a later success clears —
  /// so a transient background-compaction failure stays visible).
  uint64_t compactions = 0;
  uint64_t compaction_failures = 0;
  /// Last Compact() failure ("" when compaction never failed or succeeded
  /// since) — the only visible signal when BACKGROUND compaction fails.
  std::string last_compact_error;

  /// hits / (hits + misses); 0 when the cache has seen no lookups.
  double hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

/// Concurrent, snapshot-swapped, cached front end over a PatternIndex.
class ViewService {
 public:
  /// `db` may be null (no database queries) and must outlive the service.
  explicit ViewService(const GraphDatabase* db,
                       ViewServiceOptions options = {});
  /// Joins any in-flight background compaction.
  ~ViewService();

  ViewService(const ViewService&) = delete;
  ViewService& operator=(const ViewService&) = delete;

  // --- Durable storage (src/store/) ---

  /// Opens (or creates) a DURABLE service rooted at directory `dir`:
  /// warm-starts from the newest snapshot that validates (decoding the
  /// index postings — no isomorphism rebuild), replays WAL admissions
  /// newer than it (one PatternIndex::Apply over the labels they touched;
  /// a scratch build only when a delta chain was folded in), truncates a torn
  /// WAL tail, and attaches the WAL so every subsequent admission is
  /// logged before it publishes. An empty directory opens as an empty
  /// epoch-0 service. `db` must be the database the stored views explain
  /// (null for services without database queries).
  static Result<std::unique_ptr<ViewService>> Open(
      const std::string& dir, const GraphDatabase* db,
      ViewServiceOptions options = {});

  /// True when this service was created by Open (Save/Compact available) —
  /// or by OpenReplica once Promote() attached the store.
  bool durable() const {
    return store_ptr_.load(std::memory_order_acquire) != nullptr;
  }
  /// The store directory ("" when not durable).
  const std::string& store_dir() const;

  // --- Replication (store/replication.h ships bytes; serve/
  // replica_applier.h drives the methods below) ---

  /// Opens a READ-ONLY replica over `dir`: like Open, but takes no store
  /// LOCK and attaches no WAL writer — the replica applier owns the
  /// directory and mirrors the primary into it; this service only publishes
  /// what the applier validated. Queries work normally; AdmitViews / Save /
  /// Compact answer FailedPrecondition until Promote(). An empty directory
  /// opens as an empty epoch-0 replica.
  static Result<std::unique_ptr<ViewService>> OpenReplica(
      const std::string& dir, const GraphDatabase* db,
      ViewServiceOptions options = {});

  /// True for a replica that has not been promoted. Mutating verbs consult
  /// this dynamically, so Promote() flips live protocol sessions too.
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  /// The directory a `replicate` stream serves from: the durable store dir,
  /// or the replica dir for OpenReplica services ("" for in-memory ones).
  const std::string& replication_dir() const;

  /// Publishes the full recovered state `plan` describes (chain image + WAL
  /// replay), replacing the current snapshot. The applier calls this after
  /// file-level sync passes the PlanRecovery verdict. FailedPrecondition on
  /// a non-replica. Also refuses (IOError) a plan whose final epoch is
  /// BELOW the replica's current epoch — acknowledged state never regresses.
  Status ReplicaPublishPlan(RecoveryPlan plan);

  /// Cheap incremental path: applies WAL `records` that extend the current
  /// epoch contiguously (records at or below it are skipped) and publishes
  /// ONE new snapshot. FailedPrecondition on a non-replica or on an epoch
  /// gap — the caller then escalates to the full PlanRecovery verdict.
  Status ReplicaApplyWalRecords(const std::vector<WalRecord>& records);

  /// Flips a replica writable: re-runs the PlanRecovery verdict over the
  /// replica directory, republishes exactly the recovered state, acquires
  /// the store LOCK (the applier must have released it), attaches the WAL
  /// writer, and registers the durable health checks — after this the
  /// service is indistinguishable from one ViewService::Open built.
  /// FailedPrecondition when not a replica; any verdict/lock/WAL failure
  /// leaves the service read-only and unlocked.
  Status Promote();

  /// Persists the current epoch into the store directory (atomic
  /// tmp+rename; the WAL is kept, so admissions racing the save stay
  /// recoverable). kFull writes `snapshot-<epoch>.gvxs` and roots a fresh
  /// chain; kDelta appends `delta-<epoch>.gvxd` holding only the views
  /// changed since the last persisted image (FailedPrecondition when no
  /// full base exists yet); kAuto picks by the DurableStoreOptions size
  /// policy. When the current epoch is already persisted, kAuto/kDelta
  /// return it without touching disk (`wrote` = false).
  /// FailedPrecondition when the service is not durable.
  Result<SaveInfo> Save(SaveKind kind = SaveKind::kAuto);

  /// Full Save() + reset the WAL (every logged admission is now covered by
  /// the snapshot) + prune older snapshot and delta files (when enabled) —
  /// chains fold back into a single full base. Returns the epoch compacted
  /// into. Safe to call concurrently with admissions and queries.
  Result<uint64_t> Compact();

  /// Publishes `view` (replacing any previous view for its label) as a new
  /// epoch. The index update re-checks only this label and happens off to
  /// the side; readers keep serving the previous epoch until the atomic
  /// pointer swap. Returns the
  /// epoch THIS admission was published in (under concurrent admitters,
  /// epoch() may already be past it by the time the caller looks).
  Result<uint64_t> AdmitView(ExplanationView view);

  /// Publishes several views atomically (readers see all or none of them).
  /// Concurrent AdmitViews callers are COALESCED by a single-writer
  /// combining queue: one caller becomes the leader and publishes every
  /// queued admission as ONE epoch with ONE WAL append (and fsync) and ONE
  /// incremental index update over the union of the batch's labels — so
  /// admission throughput under load is not bounded by one WAL fsync per
  /// caller. Leadership is tenure-bounded
  /// (a leader serves a few rounds past its own admission, then hands
  /// off), so no caller waits unboundedly. The returned epoch is the
  /// combined batch's epoch (several concurrent callers may share it).
  Result<uint64_t> AdmitViews(std::vector<ExplanationView> views);

  // --- Single queries (each runs on one atomically loaded snapshot and is
  // bit-identical to the legacy ViewStore scan; see the oracle test). ---
  std::vector<int> Labels() const;
  std::vector<Pattern> PatternsForLabel(int label) const;
  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const;
  /// Graphs of `label` whose explanation subgraph contains ALL of
  /// `patterns` (one batched bitset pass; equal to intersecting the
  /// per-pattern answers). Uncached — the multi-pattern key space is too
  /// sparse to be worth cache slots.
  std::vector<int> GraphsWithAllPatterns(
      int label, const std::vector<Pattern>& patterns) const;
  /// Approximate pattern query: the label's explanation subgraph sharing
  /// the largest common induced subgraph with `query` (McSplit search,
  /// `options.max_steps` spent PER subgraph). A bound-hit downgrades
  /// `exact`, never mis-ranks an answer the search did prove.
  McsAnswer MaxCommonSubgraph(int label, const Graph& query,
                              const McsOptions& options = {}) const;
  std::vector<int> LabelsOfPattern(const Pattern& p) const;
  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const;
  std::vector<Pattern> DiscriminativePatterns(int label) const;

  /// Executes a batch across workers: the persistent pool when
  /// `batch_workers` > 0 (num_threads is then ignored), else a transient
  /// pool of `num_threads`. The whole batch runs against ONE snapshot, so
  /// every result carries the same epoch; results land in request order
  /// regardless of worker count.
  std::vector<ViewQueryResult> ExecuteBatch(
      const std::vector<ViewQuery>& queries, int num_threads = 1) const;

  /// Epoch of the currently published snapshot (0 = empty initial epoch).
  uint64_t epoch() const;

  ViewServiceStats stats() const;

 private:
  struct Snapshot {
    uint64_t epoch = 0;
    ViewMapPtr views;
    PatternIndex index;
    /// Cumulative admission counters, carried snapshot-to-snapshot so
    /// stats() reads them consistently WITH the epoch (one atomic load).
    uint64_t admitted_views = 0;
    uint64_t admitted_batches = 0;
  };

  /// One queued AdmitViews call awaiting the combining leader. Lives on
  /// the caller's stack for the duration of its AdmitViews call.
  struct AdmitWaiter {
    std::vector<ExplanationView> views;
    Status status = Status::OK();
    uint64_t epoch = 0;
    bool done = false;
  };

  /// One LRU stripe: list front = most recent; map values point into it.
  struct CacheShard {
    struct Entry {
      std::string key;
      ViewQueryResult result;
    };
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Durable-store state, present only for Open-created services. The WAL
  /// writer is guarded by writer_mu_ (appends happen inside admissions).
  /// The compactor HANDLE is guarded by compact_mu (the worker may clear
  /// `compacting` before the scheduler's move-assignment into `compactor`
  /// completes, so flag-only coordination would race on the handle).
  struct DurableStore {
    ~DurableStore() {
      if (lock_fd >= 0) ::close(lock_fd);  // releases the flock
    }
    std::string dir;
    /// Held (flock LOCK_EX) for the service's lifetime — one writer per
    /// store directory; -1 until Open acquires it.
    int lock_fd = -1;
    WalWriter wal;
    /// Chain bookkeeping, guarded by writer_mu_ (mutated by Save/Compact/
    /// admissions, all of which hold it). `persisted_epoch` is the newest
    /// on-disk image (chain tip); `base_epoch` the full snapshot the chain
    /// roots at (`have_base` distinguishes a genuine epoch-0 base from no
    /// base at all); `chain_length` the deltas since that base;
    /// `dirty_labels` the labels admitted since the persisted tip (what
    /// the next delta must carry).
    uint64_t persisted_epoch = 0;
    uint64_t base_epoch = 0;
    bool have_base = false;
    int chain_length = 0;
    std::set<int> dirty_labels;
    /// Set when a Compact saved its snapshot but could not reset the WAL;
    /// every logged record is covered by that snapshot, so the next
    /// admission retries the reset instead of staying wedged.
    std::atomic<bool> wal_needs_reset{false};
    std::atomic<bool> compacting{false};
    std::mutex compact_mu;
    std::thread compactor;
    /// Last Compact() outcome ("" = success), for stats()/operators —
    /// background compaction has no caller to return its status to.
    std::mutex status_mu;
    std::string last_compact_error;
    /// Monotone compaction outcome counters (stats().compactions /
    /// .compaction_failures) — failures stay visible after a later
    /// success clears last_compact_error.
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> compaction_failures{0};
  };

  std::shared_ptr<const Snapshot> Load() const;
  void Publish(std::shared_ptr<const Snapshot> snap);
  /// Builds the snapshot a RecoveryPlan describes: chain image + WAL replay,
  /// postings decoded when nothing changed the view set, rebuilt otherwise.
  /// `dirty` (optional) receives the labels WAL records past the chain tip
  /// touched. Shared by Open, OpenReplica, ReplicaPublishPlan, and Promote
  /// so every path recovers to IDENTICAL state. Returns null for an empty
  /// plan (final epoch 0) — the caller keeps its epoch-0 snapshot.
  static std::shared_ptr<const Snapshot> BuildRecoveredSnapshot(
      RecoveryPlan plan, const GraphDatabase* db,
      const ViewServiceOptions& options, std::set<int>* dirty);
  ViewQueryResult Execute(const Snapshot& snap, const ViewQuery& q) const;
  /// Cache-through execution: looks up (epoch, query) and fills on miss.
  ViewQueryResult ExecuteCached(const Snapshot& snap,
                                const ViewQuery& q) const;
  /// Publishes one combined batch of waiters as ONE epoch (one WAL append,
  /// one PatternIndex::Apply over the batch's labels). Returns the
  /// published epoch via *published and
  /// the WAL size via *wal_bytes; on error nothing was published.
  Status AdmitCombined(const std::vector<AdmitWaiter*>& batch,
                       uint64_t* published, uint64_t* wal_bytes);
  /// Full-snapshot write for `snap`; requires writer_mu_ held and
  /// durable(). Resets the chain bookkeeping to root at `snap.epoch`.
  Status SaveLocked(const Snapshot& snap);
  /// Delta write for `snap` against the persisted tip; requires writer_mu_
  /// held, durable(), and a full base on disk.
  Status SaveDeltaLocked(const Snapshot& snap);
  /// Kicks off a background Compact when the WAL outgrew its threshold
  /// (`wal_bytes` is read under the writer lock by the caller).
  void MaybeScheduleCompact(uint64_t wal_bytes);
  /// Registers the service-level health checks (admit_queue); the
  /// constructor calls it, the destructor unregisters via health_handles_.
  void RegisterHealthChecks();
  /// Registers the durable-store checks (wal, store_lock, compaction);
  /// Open calls it once store_ is attached.
  void RegisterDurableHealthChecks();

  const GraphDatabase* db_;
  ViewServiceOptions options_;

  /// Current snapshot; accessed with std::atomic_load / std::atomic_store.
  std::shared_ptr<const Snapshot> snapshot_;
  /// Serializes writers (admissions, snapshot writes, WAL appends).
  std::mutex writer_mu_;
  /// Combining queue for AdmitViews: callers enqueue under admit_mu_; a
  /// caller that finds no active leader becomes one and serves combined
  /// batches for a bounded tenure (see AdmitViews). Waiters sleep on
  /// admit_cv_ until their waiter is done or leadership frees up.
  std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  std::vector<AdmitWaiter*> admit_queue_;
  bool admit_leader_active_ = false;
  /// Monotonic ms when the current combining leader took over (0 = no
  /// leader) — what the `admit_queue` health check and the net watchdog
  /// read to detect a wedged leader without touching admit_mu_.
  std::atomic<int64_t> admit_leader_since_ms_{0};
  /// Unregistered (front of ~ViewService) before any state they read dies.
  std::vector<obs::HealthCheckHandle> health_handles_;

  mutable std::vector<std::unique_ptr<CacheShard>> cache_;
  /// Persistent batch pool (null when options_.batch_workers == 0).
  std::unique_ptr<ThreadPool> batch_pool_;
  /// Null for purely in-memory services. Owner; unlocked readers (stats,
  /// MaybeScheduleCompact, the durable() guards) go through store_ptr_,
  /// which Promote() publishes with release ordering on a LIVE service —
  /// a plain read of store_ there would race the promotion.
  std::unique_ptr<DurableStore> store_;
  std::atomic<DurableStore*> store_ptr_{nullptr};
  /// Set by OpenReplica, cleared by Promote. Mutating entry points check it
  /// before touching the writer path.
  std::atomic<bool> read_only_{false};
  /// The replica's mirrored directory ("" for non-replica services); fixed
  /// at OpenReplica time, still valid (as store_->dir) after Promote.
  std::string replica_dir_;
};

}  // namespace gvex

#endif  // GVEX_SERVE_VIEW_SERVICE_H_
