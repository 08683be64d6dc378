#include "serve/view_service.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <utility>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/rate_limiter.h"
#include "store/recovery.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gvex {

namespace {

// The initial (epoch-0) views map, shared by every service instance.
ViewMapPtr EmptyViews() {
  static const auto empty = std::make_shared<const ViewMap>();
  return empty;
}

// Plain-valued copy of a shared view map (the snapshot codec's form).
std::map<int, ExplanationView> PlainViews(const ViewMap& views) {
  std::map<int, ExplanationView> out;
  for (const auto& [label, view] : views) out.emplace(label, *view);
  return out;
}

// True for kinds whose answers are worth caching: the ones that historically
// cost an isomorphism scan. kLabels / kPatternsForLabel are O(1) reads of
// the snapshot — a cache would only add lock traffic.
bool Cacheable(QueryKind kind) {
  switch (kind) {
    case QueryKind::kGraphsWithPattern:
    case QueryKind::kLabelsOfPattern:
    case QueryKind::kDatabaseGraphsWithPattern:
    case QueryKind::kDiscriminativePatterns:
      return true;
    case QueryKind::kLabels:
    case QueryKind::kPatternsForLabel:
      return false;
  }
  return false;
}

std::string CacheKey(uint64_t epoch, const ViewQuery& q) {
  std::string key = StrFormat("%llu|%d|%d|",
                              static_cast<unsigned long long>(epoch),
                              static_cast<int>(q.kind), q.label);
  key += q.pattern.canonical_code();
  return key;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int64_t SteadyNowMs() {
  return obs::RateLimiter::MonotonicNowNs() / 1000000;
}

// Store-layer instruments, registered once; hot paths then cost only
// relaxed atomic adds (never the registry lock).
struct StoreInstruments {
  obs::Histogram* batch_callers;
  obs::Histogram* batch_views;
  obs::Histogram* leader_tenure;
  obs::Histogram* index_rebuild;
  obs::Histogram* save_seconds_full;
  obs::Histogram* save_seconds_delta;
  obs::Counter* saves_full;
  obs::Counter* saves_delta;
  obs::Counter* save_failures_full;
  obs::Counter* save_failures_delta;
  obs::Histogram* compaction_seconds;
};

const StoreInstruments& StoreObs() {
  static const StoreInstruments* instruments = [] {
    auto* si = new StoreInstruments();
    obs::Registry& m = obs::Metrics();
    si->batch_callers = m.GetHistogram(
        "gvex_admit_batch_callers",
        "AdmitViews callers combined into one published batch",
        obs::Unit::kNone);
    si->batch_views = m.GetHistogram(
        "gvex_admit_batch_views", "Views folded into one published batch",
        obs::Unit::kNone);
    si->leader_tenure = m.GetHistogram(
        "gvex_admit_leader_tenure_seconds",
        "Time one caller spent leading the combining queue",
        obs::Unit::kNanoseconds);
    si->index_rebuild = m.GetHistogram(
        "gvex_index_rebuild_seconds",
        "PatternIndex::Apply time per published admission batch",
        obs::Unit::kNanoseconds);
    si->save_seconds_full = m.GetHistogram(
        "gvex_snapshot_save_seconds", "Snapshot write duration, per kind",
        obs::Unit::kNanoseconds, "kind", "full");
    si->save_seconds_delta = m.GetHistogram(
        "gvex_snapshot_save_seconds", "Snapshot write duration, per kind",
        obs::Unit::kNanoseconds, "kind", "delta");
    si->saves_full =
        m.GetCounter("gvex_snapshot_saves_total",
                     "Snapshot writes that succeeded, per kind", "kind",
                     "full");
    si->saves_delta =
        m.GetCounter("gvex_snapshot_saves_total",
                     "Snapshot writes that succeeded, per kind", "kind",
                     "delta");
    si->save_failures_full =
        m.GetCounter("gvex_snapshot_save_failures_total",
                     "Snapshot writes that failed, per kind", "kind", "full");
    si->save_failures_delta =
        m.GetCounter("gvex_snapshot_save_failures_total",
                     "Snapshot writes that failed, per kind", "kind",
                     "delta");
    si->compaction_seconds = m.GetHistogram(
        "gvex_compaction_seconds", "Compact() duration, failures included",
        obs::Unit::kNanoseconds);
    return si;
  }();
  return *instruments;
}

}  // namespace

ViewService::~ViewService() {
  // First: the health checks capture `this` and the store. Unregister
  // returning guarantees none is mid-run, so everything they read may now
  // be torn down.
  health_handles_.clear();
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(store_->compact_mu);
    if (store_->compactor.joinable()) store_->compactor.join();
  }
}

ViewService::ViewService(const GraphDatabase* db, ViewServiceOptions options)
    : db_(db), options_(options) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = 0;
  snap->views = EmptyViews();
  snap->index = PatternIndex::Build(snap->views, db_, options_.index);
  snapshot_ = std::shared_ptr<const Snapshot>(std::move(snap));
  const int shards = std::max(1, options_.cache_shards);
  cache_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    cache_.push_back(std::make_unique<CacheShard>());
  }
  if (options_.batch_workers > 0) {
    batch_pool_ = std::make_unique<ThreadPool>(options_.batch_workers);
  }
  RegisterHealthChecks();
}

void ViewService::RegisterHealthChecks() {
  health_handles_.push_back(obs::RegisterHealthCheck(
      "admit_queue", [this]() -> obs::HealthCheckResult {
        const int64_t since =
            admit_leader_since_ms_.load(std::memory_order_relaxed);
        if (since == 0) return {obs::HealthStatus::kOk, "idle"};
        const double held_sec =
            static_cast<double>(SteadyNowMs() - since) / 1000.0;
        if (held_sec > options_.admit_wedge_warn_sec) {
          return {obs::HealthStatus::kFail,
                  StrFormat("combining-queue leader wedged for %.1f s",
                            held_sec)};
        }
        return {obs::HealthStatus::kOk, "leader active"};
      }));
}

void ViewService::RegisterDurableHealthChecks() {
  DurableStore* store = store_.get();
  health_handles_.push_back(obs::RegisterHealthCheck(
      "store_lock", [store]() -> obs::HealthCheckResult {
        if (store->lock_fd < 0) {
          return {obs::HealthStatus::kFail, "store LOCK not held"};
        }
        struct stat st;
        if (::fstat(store->lock_fd, &st) != 0) {
          return {obs::HealthStatus::kFail, "store LOCK fd unusable"};
        }
        return {obs::HealthStatus::kOk, "flock held on " + store->dir + "/LOCK"};
      }));
  health_handles_.push_back(obs::RegisterHealthCheck(
      "wal", [this, store]() -> obs::HealthCheckResult {
        // try-lock only: health evaluation must never stall behind a save
        // or compaction holding the writer lock.
        std::unique_lock<std::mutex> lock(writer_mu_, std::try_to_lock);
        if (!lock.owns_lock()) {
          return {obs::HealthStatus::kOk,
                  "writer busy (admission/save/compaction in flight)"};
        }
        if (!store->wal.is_open()) {
          return {obs::HealthStatus::kFail,
                  "WAL writer not open (latched append/reset failure)"};
        }
        const obs::HealthCheckResult dir_check =
            obs::CheckDirectoryWritable(store->dir);
        if (dir_check.status != obs::HealthStatus::kOk) return dir_check;
        return {obs::HealthStatus::kOk,
                StrFormat("appendable (%llu bytes)",
                          static_cast<unsigned long long>(
                              store->wal.file_bytes()))};
      }));
  health_handles_.push_back(obs::RegisterHealthCheck(
      "compaction", [this, store]() -> obs::HealthCheckResult {
        {
          std::lock_guard<std::mutex> status_lock(store->status_mu);
          if (!store->last_compact_error.empty()) {
            return {obs::HealthStatus::kDegraded,
                    "last compaction failed: " + store->last_compact_error};
          }
        }
        const uint64_t threshold = options_.store.compact_wal_bytes;
        if (threshold > 0) {
          std::unique_lock<std::mutex> lock(writer_mu_, std::try_to_lock);
          if (lock.owns_lock() && store->wal.is_open()) {
            const uint64_t bytes = store->wal.file_bytes();
            if (bytes > 4 * threshold) {
              return {obs::HealthStatus::kDegraded,
                      StrFormat("WAL backlog %llu bytes exceeds 4x the "
                                "compact threshold",
                                static_cast<unsigned long long>(bytes))};
            }
          }
        }
        return {obs::HealthStatus::kOk, "backlog bounded"};
      }));
}

std::shared_ptr<const ViewService::Snapshot> ViewService::Load() const {
  return std::atomic_load(&snapshot_);
}

void ViewService::Publish(std::shared_ptr<const Snapshot> snap) {
  std::atomic_store(&snapshot_, std::move(snap));
}

Result<uint64_t> ViewService::AdmitView(ExplanationView view) {
  std::vector<ExplanationView> one;
  one.push_back(std::move(view));
  return AdmitViews(std::move(one));
}

Result<uint64_t> ViewService::AdmitViews(std::vector<ExplanationView> views) {
  if (views.empty()) {
    return Status::InvalidArgument("no views to admit");
  }
  for (const ExplanationView& v : views) {
    if (v.label < 0) {
      return Status::InvalidArgument("cannot admit a view without a label");
    }
  }
  if (read_only()) {
    return Status::FailedPrecondition(
        "read-only replica refuses admissions (Promote() first)");
  }
  // Single-writer combining queue: every caller enqueues; the first one to
  // find no active leader becomes the leader and publishes every queued
  // admission as one epoch (one WAL append + fsync, one incremental index
  // update over the batch's labels — both amortize over the whole batch).
  // Later arrivals just sleep until a leader marks their waiter done, so
  // admission throughput under load is bounded by batches, not callers.
  // Leadership is TENURE-BOUNDED: once the leader's own admission is
  // published it serves at most a couple more rounds and then hands the
  // role to a queued waiter — a sustained stream of admitters can
  // therefore never hold one caller's AdmitViews hostage indefinitely.
  AdmitWaiter me;
  me.views = std::move(views);
  std::unique_lock<std::mutex> lock(admit_mu_);
  admit_queue_.push_back(&me);
  // Returns immediately when there is no active leader (or a leader
  // already served us); otherwise sleeps until one of those holds.
  admit_cv_.wait(lock, [&] { return me.done || !admit_leader_active_; });
  if (!me.done) {
    // No active leader and our admission is still queued: lead.
    admit_leader_active_ = true;
    admit_leader_since_ms_.store(SteadyNowMs(), std::memory_order_relaxed);
    const auto tenure_start = std::chrono::steady_clock::now();
    constexpr int kLeaderExtraRounds = 2;
    int extra_rounds = 0;
    while (!admit_queue_.empty()) {
      if (me.done && ++extra_rounds > kLeaderExtraRounds) break;
      std::vector<AdmitWaiter*> batch;
      batch.swap(admit_queue_);
      lock.unlock();
      uint64_t published = 0;
      uint64_t wal_bytes = 0;
      const Status status = AdmitCombined(batch, &published, &wal_bytes);
      // Outside both locks: compaction takes the writer lock itself.
      MaybeScheduleCompact(wal_bytes);
      lock.lock();
      for (AdmitWaiter* waiter : batch) {
        waiter->status = status;
        waiter->epoch = published;
        waiter->done = true;
      }
      admit_cv_.notify_all();
    }
    admit_leader_active_ = false;
    admit_leader_since_ms_.store(0, std::memory_order_relaxed);
    StoreObs().leader_tenure->ObserveSeconds(SecondsSince(tenure_start));
    if (!admit_queue_.empty()) {
      // Tenure expired with work still queued: wake the waiters so one
      // of them takes over as leader.
      admit_cv_.notify_all();
    }
  }
  lock.unlock();
  GVEX_RETURN_NOT_OK(me.status);
  return me.epoch;
}

Status ViewService::AdmitCombined(const std::vector<AdmitWaiter*>& batch,
                                  uint64_t* published, uint64_t* wal_bytes) {
  // Writers serialize here; readers are untouched. Everything below — the
  // WAL append, the views-map copy, and the incremental index update —
  // happens on the NEXT snapshot, off to the side of the published one.
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (options_.admit_test_hook) options_.admit_test_hook();
  std::shared_ptr<const Snapshot> cur = Load();
  *published = cur->epoch + 1;
  *wal_bytes = 0;
  // One WAL record for the whole combined batch (the record's epoch still
  // bumps by exactly one, so recovery's contiguity invariant holds); views
  // are applied in queue order, so a caller's own ordering is preserved
  // and the last admission of a label wins.
  WalRecord record;
  record.epoch = *published;
  size_t total = 0;
  for (const AdmitWaiter* waiter : batch) total += waiter->views.size();
  StoreObs().batch_callers->Observe(batch.size());
  StoreObs().batch_views->Observe(total);
  record.views.reserve(total);
  for (AdmitWaiter* waiter : batch) {
    for (ExplanationView& v : waiter->views) {
      record.views.push_back(std::move(v));
    }
  }
  if (store_ != nullptr) {
    if (store_->wal_needs_reset.load()) {
      // A previous Compact saved its snapshot but could not reset the
      // WAL; the snapshot covers every logged record, so retrying here
      // is safe — and un-wedges a writer the failure left closed. The
      // admission must NOT proceed while the reset is still pending: an
      // appended-then-reset record would be an acknowledged admission
      // destroyed by the next successful reset.
      GVEX_RETURN_NOT_OK(store_->wal.Reset());
      store_->wal_needs_reset.store(false);
    }
    // Log-before-publish: if the append fails, nothing was admitted — the
    // whole batch sees the error and the published state is unchanged.
    GVEX_RETURN_NOT_OK(store_->wal.Append(record));
    for (const ExplanationView& v : record.views) {
      store_->dirty_labels.insert(v.label);
    }
  }
  // The next views map copies one pointer per label; only the admitted
  // labels get new views, and only they are re-checked by Apply.
  auto next_views = std::make_shared<ViewMap>(*cur->views);
  std::set<int> changed;
  for (ExplanationView& v : record.views) {
    changed.insert(v.label);
    (*next_views)[v.label] =
        std::make_shared<const ExplanationView>(std::move(v));
  }
  auto next = std::make_shared<Snapshot>();
  next->epoch = *published;
  next->views = std::move(next_views);
  const auto build_start = std::chrono::steady_clock::now();
  next->index = PatternIndex::Apply(cur->index, next->views, changed,
                                    options_.index.num_threads);
  StoreObs().index_rebuild->ObserveSeconds(SecondsSince(build_start));
  next->admitted_views = cur->admitted_views + total;
  next->admitted_batches = cur->admitted_batches + batch.size();
  Publish(std::move(next));
  obs::RecordFlight(obs::FlightKind::kEpoch,
                    "epoch %llu published (%zu views, %zu callers)",
                    static_cast<unsigned long long>(*published), total,
                    batch.size());
  if (store_ != nullptr) *wal_bytes = store_->wal.file_bytes();
  return Status::OK();
}

uint64_t ViewService::epoch() const { return Load()->epoch; }

ViewQueryResult ViewService::Execute(const Snapshot& snap,
                                     const ViewQuery& q) const {
  ViewQueryResult out;
  out.epoch = snap.epoch;
  switch (q.kind) {
    case QueryKind::kLabels:
      out.ids = snap.index.Labels();
      break;
    case QueryKind::kPatternsForLabel:
      out.patterns = snap.index.PatternsForLabel(q.label);
      break;
    case QueryKind::kGraphsWithPattern:
      out.ids = snap.index.GraphsWithPattern(q.label, q.pattern);
      break;
    case QueryKind::kLabelsOfPattern:
      out.ids = snap.index.LabelsOfPattern(q.pattern);
      break;
    case QueryKind::kDatabaseGraphsWithPattern:
      out.ids = snap.index.DatabaseGraphsWithPattern(q.pattern, q.label);
      break;
    case QueryKind::kDiscriminativePatterns:
      out.patterns = snap.index.DiscriminativePatterns(q.label);
      break;
  }
  return out;
}

ViewQueryResult ViewService::ExecuteCached(const Snapshot& snap,
                                           const ViewQuery& q) const {
  if (options_.cache_capacity == 0 || !Cacheable(q.kind)) {
    return Execute(snap, q);
  }
  const std::string key = CacheKey(snap.epoch, q);
  CacheShard& shard =
      *cache_[std::hash<std::string>()(key) % cache_.size()];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      // Refresh LRU position.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->result;
    }
    ++shard.misses;
  }
  // Compute outside the lock — a slow query must not serialize the shard.
  ViewQueryResult result = Execute(snap, q);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      shard.lru.push_front(CacheShard::Entry{key, result});
      shard.map[key] = shard.lru.begin();
      while (shard.map.size() > options_.cache_capacity) {
        shard.map.erase(shard.lru.back().key);
        shard.lru.pop_back();
      }
    }
  }
  return result;
}

std::vector<int> ViewService::Labels() const {
  return Load()->index.Labels();
}

std::vector<Pattern> ViewService::PatternsForLabel(int label) const {
  return Load()->index.PatternsForLabel(label);
}

std::vector<int> ViewService::GraphsWithPattern(int label,
                                                const Pattern& p) const {
  ViewQuery q;
  q.kind = QueryKind::kGraphsWithPattern;
  q.label = label;
  q.pattern = p;
  return ExecuteCached(*Load(), q).ids;
}

std::vector<int> ViewService::GraphsWithAllPatterns(
    int label, const std::vector<Pattern>& patterns) const {
  return Load()->index.GraphsWithAllPatterns(label, patterns);
}

McsAnswer ViewService::MaxCommonSubgraph(int label, const Graph& query,
                                         const McsOptions& options) const {
  std::shared_ptr<const Snapshot> snap = Load();
  McsAnswer out;
  out.epoch = snap->epoch;
  auto it = snap->views->find(label);
  if (it == snap->views->end()) return out;
  for (const ExplanationSubgraph& s : it->second->subgraphs) {
    const McsResult r = gvex::MaxCommonSubgraph(query, s.subgraph, options);
    if (!r.exact) out.exact = false;  // some search stopped early
    if (r.size > out.size) {
      out.size = r.size;
      out.graph_index = s.graph_index;
    }
  }
  return out;
}

std::vector<int> ViewService::LabelsOfPattern(const Pattern& p) const {
  ViewQuery q;
  q.kind = QueryKind::kLabelsOfPattern;
  q.pattern = p;
  return ExecuteCached(*Load(), q).ids;
}

std::vector<int> ViewService::DatabaseGraphsWithPattern(const Pattern& p,
                                                        int label) const {
  ViewQuery q;
  q.kind = QueryKind::kDatabaseGraphsWithPattern;
  q.label = label;
  q.pattern = p;
  return ExecuteCached(*Load(), q).ids;
}

std::vector<Pattern> ViewService::DiscriminativePatterns(int label) const {
  ViewQuery q;
  q.kind = QueryKind::kDiscriminativePatterns;
  q.label = label;
  return ExecuteCached(*Load(), q).patterns;
}

std::vector<ViewQueryResult> ViewService::ExecuteBatch(
    const std::vector<ViewQuery>& queries, int num_threads) const {
  // One snapshot for the whole batch: every answer shares an epoch, and the
  // batch is immune to concurrent admissions.
  std::shared_ptr<const Snapshot> snap = Load();
  std::vector<ViewQueryResult> results(queries.size());
  const int n = static_cast<int>(queries.size());
  const auto run_shard = [&](const Shard& shard) {
    for (int i = shard.begin; i < shard.end; ++i) {
      results[static_cast<size_t>(i)] =
          ExecuteCached(*snap, queries[static_cast<size_t>(i)]);
    }
  };
  // Results are slot-indexed, so the output is identical whichever pool
  // (persistent or transient) runs the shards, and for any worker count.
  if (batch_pool_ != nullptr) {
    batch_pool_->RunSharded(batch_pool_->num_threads() * 4, n, run_shard);
  } else {
    const int threads = std::max(1, num_threads);
    ThreadPool::ParallelForShards(threads, threads * 4, n, run_shard);
  }
  return results;
}

// --- Durable storage -----------------------------------------------------

const std::string& ViewService::store_dir() const {
  static const std::string empty;
  const DurableStore* store = store_ptr_.load(std::memory_order_acquire);
  return store != nullptr ? store->dir : empty;
}

Result<std::unique_ptr<ViewService>> ViewService::Open(
    const std::string& dir, const GraphDatabase* db,
    ViewServiceOptions options) {
  GVEX_RETURN_NOT_OK(EnsureDir(dir));

  // One writer per store: a second Open (e.g. an "offline" gvex_store
  // compact racing a live server) would truncate the WAL under the first
  // writer's feet and strand its acknowledged appends behind torn bytes.
  // flock is advisory but every store entry point goes through Open.
  auto store = std::make_unique<DurableStore>();
  store->dir = dir;
  const std::string lock_path = dir + "/LOCK";
  store->lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                          0644);
  if (store->lock_fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", lock_path.c_str(),
                                     std::strerror(errno)));
  }
  if (::flock(store->lock_fd, LOCK_EX | LOCK_NB) != 0) {
    return Status::FailedPrecondition(StrFormat(
        "store %s is locked by another process (close it, or wait for it "
        "to exit)", dir.c_str()));
  }

  // The shared fail-stop verdict (src/store/recovery.h): newest valid
  // snapshot, WAL contiguity, acknowledged-epoch reachability.
  GVEX_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(dir));
  if (plan.have_snapshot) {
    // The snapshot records the semantics its postings were computed with;
    // recovery must answer with those regardless of the caller's defaults
    // — on BOTH paths below (posting decode and WAL-replay index update),
    // and for every index update a later admission triggers. Otherwise the
    // same store would answer differently depending on whether a WAL
    // record happened to exist at reopen.
    options.index.match = plan.snapshot.match;
    options.index.index_database = plan.snapshot.database_indexed;
  }

  auto service =
      std::unique_ptr<ViewService>(new ViewService(db, options));

  // Chain bookkeeping: the tip is what the resolved chain persists; WAL
  // records beyond it are the dirty set the next delta save must carry.
  store->persisted_epoch = plan.snapshot.epoch;
  store->base_epoch = plan.base_epoch;
  store->have_base = plan.have_snapshot;
  store->chain_length = static_cast<int>(plan.chain.size());
  const uint64_t wal_valid_bytes = plan.replay.valid_bytes;

  std::set<int> dirty;
  auto next = BuildRecoveredSnapshot(std::move(plan), db, options, &dirty);
  if (next != nullptr) service->Publish(std::move(next));
  store->dirty_labels = std::move(dirty);

  store->wal.set_sync_every(options.store.wal_sync_every);
  // Dropping a torn tail here is safe: those bytes never published (the
  // WAL is written before the snapshot swap, so at worst the tail is an
  // admission whose caller never saw success).
  GVEX_RETURN_NOT_OK(store->wal.Open(dir + "/" + WalFileName(),
                                     wal_valid_bytes));
  service->store_ = std::move(store);
  service->store_ptr_.store(service->store_.get(), std::memory_order_release);
  service->RegisterDurableHealthChecks();
  return service;
}

std::shared_ptr<const ViewService::Snapshot>
ViewService::BuildRecoveredSnapshot(RecoveryPlan plan, const GraphDatabase* db,
                                    const ViewServiceOptions& options,
                                    std::set<int>* dirty) {
  ViewMapPtr base_views = ShareViews(std::move(plan.snapshot.views));
  auto views = std::make_shared<ViewMap>(*base_views);
  std::set<int> replayed;
  for (WalRecord& record : plan.replay.records) {
    // Records at or below the chain tip were folded into the base or a
    // delta already (Save never resets the WAL, so the log overlaps the
    // chain); applying them again would be a no-op anyway — skip.
    if (record.epoch <= plan.snapshot.epoch) continue;
    for (ExplanationView& v : record.views) {
      replayed.insert(v.label);
      (*views)[v.label] =
          std::make_shared<const ExplanationView>(std::move(v));
    }
  }
  if (dirty != nullptr) dirty->insert(replayed.begin(), replayed.end());
  if (plan.final_epoch == 0) return nullptr;
  auto next = std::make_shared<Snapshot>();
  next->epoch = plan.final_epoch;
  next->views = std::move(views);
  if (!plan.postings_valid) {
    // No stored postings describe the base (no snapshot, or deltas were
    // folded in — deltas carry none): one scratch build over the recovered
    // state.
    next->index = PatternIndex::Build(next->views, db, options.index);
  } else {
    // Warm start: decode the base postings (no isomorphism work), then
    // re-check only the labels the WAL tail replaced.
    next->index =
        PatternIndex::FromStored(base_views, db, plan.snapshot.match,
                                 plan.snapshot.database_indexed,
                                 plan.snapshot.postings);
    if (!replayed.empty()) {
      next->index = PatternIndex::Apply(next->index, next->views, replayed,
                                        options.index.num_threads);
    }
  }
  return next;
}

Result<std::unique_ptr<ViewService>> ViewService::OpenReplica(
    const std::string& dir, const GraphDatabase* db,
    ViewServiceOptions options) {
  GVEX_RETURN_NOT_OK(EnsureDir(dir));
  // No LOCK, no WAL writer: the replica applier owns the directory (and
  // holds its LOCK); this service only publishes validated state from it.
  GVEX_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(dir));
  if (plan.have_snapshot) {
    options.index.match = plan.snapshot.match;
    options.index.index_database = plan.snapshot.database_indexed;
  }
  auto service =
      std::unique_ptr<ViewService>(new ViewService(db, options));
  service->read_only_.store(true, std::memory_order_release);
  service->replica_dir_ = dir;
  auto next = BuildRecoveredSnapshot(std::move(plan), db, options, nullptr);
  if (next != nullptr) service->Publish(std::move(next));
  return service;
}

const std::string& ViewService::replication_dir() const {
  const DurableStore* store = store_ptr_.load(std::memory_order_acquire);
  return store != nullptr ? store->dir : replica_dir_;
}

Status ViewService::ReplicaPublishPlan(RecoveryPlan plan) {
  if (!read_only()) {
    return Status::FailedPrecondition(
        "ReplicaPublishPlan requires an unpromoted replica (OpenReplica)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = Load();
  if (plan.final_epoch < cur->epoch) {
    return Status::IOError(StrFormat(
        "replica is at epoch %llu but the primary's recovery plan reaches "
        "only %llu — refusing to regress acknowledged state",
        static_cast<unsigned long long>(cur->epoch),
        static_cast<unsigned long long>(plan.final_epoch)));
  }
  if (plan.have_snapshot) {
    // Adopt the primary's index semantics, exactly like Open would.
    options_.index.match = plan.snapshot.match;
    options_.index.index_database = plan.snapshot.database_indexed;
  }
  const uint64_t final_epoch = plan.final_epoch;
  auto next = BuildRecoveredSnapshot(std::move(plan), db_, options_, nullptr);
  if (next == nullptr) return Status::OK();  // empty plan, still epoch 0
  Publish(std::move(next));
  obs::RecordFlight(obs::FlightKind::kEpoch,
                    "replica refreshed to epoch %llu",
                    static_cast<unsigned long long>(final_epoch));
  return Status::OK();
}

Status ViewService::ReplicaApplyWalRecords(
    const std::vector<WalRecord>& records) {
  if (!read_only()) {
    return Status::FailedPrecondition(
        "ReplicaApplyWalRecords requires an unpromoted replica");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = Load();
  uint64_t epoch = cur->epoch;
  std::shared_ptr<ViewMap> next_views;
  std::set<int> changed;
  for (const WalRecord& record : records) {
    if (record.epoch <= epoch) continue;  // already published
    if (record.epoch != epoch + 1) {
      // The caller escalates to the full PlanRecovery verdict, which either
      // resolves the gap through the chain or fail-stops on lost state.
      return Status::FailedPrecondition(StrFormat(
          "WAL record epoch %llu does not attach to replica epoch %llu",
          static_cast<unsigned long long>(record.epoch),
          static_cast<unsigned long long>(epoch)));
    }
    if (next_views == nullptr) {
      next_views = std::make_shared<ViewMap>(*cur->views);
    }
    for (const ExplanationView& v : record.views) {
      changed.insert(v.label);
      (*next_views)[v.label] = std::make_shared<const ExplanationView>(v);
    }
    epoch = record.epoch;
  }
  if (next_views == nullptr) return Status::OK();  // nothing new
  auto next = std::make_shared<Snapshot>();
  next->epoch = epoch;
  next->views = std::move(next_views);
  next->index = PatternIndex::Apply(cur->index, next->views, changed,
                                    options_.index.num_threads);
  next->admitted_views = cur->admitted_views;
  next->admitted_batches = cur->admitted_batches;
  Publish(std::move(next));
  obs::RecordFlight(obs::FlightKind::kEpoch,
                    "replica applied WAL to epoch %llu",
                    static_cast<unsigned long long>(epoch));
  return Status::OK();
}

Status ViewService::Promote() {
  if (!read_only()) {
    return Status::FailedPrecondition(
        "Promote() requires an unpromoted replica (OpenReplica)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::string dir = replica_dir_;

  // The authoritative recovery verdict over the mirrored directory — a
  // replica must only go writable on a state a restarted primary would
  // also recover to.
  GVEX_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(dir));
  std::shared_ptr<const Snapshot> cur = Load();
  if (plan.final_epoch < cur->epoch) {
    return Status::IOError(StrFormat(
        "promotion would regress the replica from epoch %llu to %llu — "
        "the mirrored directory is behind acknowledged state",
        static_cast<unsigned long long>(cur->epoch),
        static_cast<unsigned long long>(plan.final_epoch)));
  }

  // Become the directory's one writer. The applier must have released its
  // LOCK before calling (ReplicaApplier::Promote orders this).
  auto store = std::make_unique<DurableStore>();
  store->dir = dir;
  const std::string lock_path = dir + "/LOCK";
  store->lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                          0644);
  if (store->lock_fd < 0) {
    return Status::IOError(StrFormat("cannot open %s: %s", lock_path.c_str(),
                                     std::strerror(errno)));
  }
  if (::flock(store->lock_fd, LOCK_EX | LOCK_NB) != 0) {
    return Status::FailedPrecondition(StrFormat(
        "store %s is still locked (the replication applier must release it "
        "before promotion)", dir.c_str()));
  }

  if (plan.have_snapshot) {
    options_.index.match = plan.snapshot.match;
    options_.index.index_database = plan.snapshot.database_indexed;
  }
  store->persisted_epoch = plan.snapshot.epoch;
  store->base_epoch = plan.base_epoch;
  store->have_base = plan.have_snapshot;
  store->chain_length = static_cast<int>(plan.chain.size());
  const uint64_t wal_valid_bytes = plan.replay.valid_bytes;
  const uint64_t final_epoch = plan.final_epoch;

  std::set<int> dirty;
  auto next = BuildRecoveredSnapshot(std::move(plan), db_, options_, &dirty);
  store->dirty_labels = std::move(dirty);
  store->wal.set_sync_every(options_.store.wal_sync_every);
  GVEX_RETURN_NOT_OK(store->wal.Open(dir + "/" + WalFileName(),
                                     wal_valid_bytes));

  // Republish exactly the recovered state (the verdict may see WAL bytes
  // the incremental apply path had not validated yet), then flip writable.
  if (next != nullptr) Publish(std::move(next));
  store_ = std::move(store);
  store_ptr_.store(store_.get(), std::memory_order_release);
  RegisterDurableHealthChecks();
  read_only_.store(false, std::memory_order_release);
  obs::RecordFlight(obs::FlightKind::kServer,
                    "promoted to primary at epoch %llu (store %s)",
                    static_cast<unsigned long long>(final_epoch),
                    dir.c_str());
  return Status::OK();
}

Status ViewService::SaveLocked(const Snapshot& snap) {
  const auto start = std::chrono::steady_clock::now();
  SnapshotData data;
  data.epoch = snap.epoch;
  data.match = snap.index.match_options();
  data.database_indexed = snap.index.database_indexed();
  data.views = PlainViews(*snap.views);
  data.postings = snap.index.ExportPostings();
  const Status status =
      SaveSnapshot(store_->dir + "/" + SnapshotFileName(snap.epoch), data);
  StoreObs().save_seconds_full->ObserveSeconds(SecondsSince(start));
  if (!status.ok()) {
    StoreObs().save_failures_full->Add(1);
    obs::RecordFlight(obs::FlightKind::kSave,
                      "full snapshot epoch %llu failed: %s",
                      static_cast<unsigned long long>(snap.epoch),
                      status.ToString().c_str());
    return status;
  }
  StoreObs().saves_full->Add(1);
  obs::RecordFlight(obs::FlightKind::kSave,
                    "full snapshot epoch %llu saved (%zu labels)",
                    static_cast<unsigned long long>(snap.epoch),
                    snap.views->size());
  // A full snapshot roots a fresh chain: everything up to this epoch is
  // covered by one file again.
  store_->base_epoch = snap.epoch;
  store_->have_base = true;
  store_->persisted_epoch = snap.epoch;
  store_->chain_length = 0;
  store_->dirty_labels.clear();
  return Status::OK();
}

Status ViewService::SaveDeltaLocked(const Snapshot& snap) {
  const auto start = std::chrono::steady_clock::now();
  DeltaData data;
  data.epoch = snap.epoch;
  data.parent_epoch = store_->persisted_epoch;
  for (int label : store_->dirty_labels) {
    auto it = snap.views->find(label);
    if (it != snap.views->end()) data.views.emplace(label, *it->second);
  }
  const Status status =
      SaveDelta(store_->dir + "/" + DeltaFileName(snap.epoch), data);
  StoreObs().save_seconds_delta->ObserveSeconds(SecondsSince(start));
  if (!status.ok()) {
    StoreObs().save_failures_delta->Add(1);
    obs::RecordFlight(obs::FlightKind::kSave,
                      "delta snapshot epoch %llu failed: %s",
                      static_cast<unsigned long long>(snap.epoch),
                      status.ToString().c_str());
    return status;
  }
  StoreObs().saves_delta->Add(1);
  obs::RecordFlight(obs::FlightKind::kSave,
                    "delta snapshot epoch %llu saved (%zu dirty labels)",
                    static_cast<unsigned long long>(snap.epoch),
                    data.views.size());
  store_->persisted_epoch = snap.epoch;
  ++store_->chain_length;
  store_->dirty_labels.clear();
  return Status::OK();
}

Result<SaveInfo> ViewService::Save(SaveKind kind) {
  if (read_only()) {
    return Status::FailedPrecondition(
        "read-only replica refuses saves (Promote() first)");
  }
  if (store_ptr_.load(std::memory_order_acquire) == nullptr) {
    return Status::FailedPrecondition(
        "Save() requires a durable service (ViewService::Open)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const Snapshot> snap = Load();
  SaveInfo info;
  info.epoch = snap->epoch;
  const bool have_base = store_->have_base;
  const bool up_to_date = have_base && snap->epoch == store_->persisted_epoch;
  if (kind == SaveKind::kFull) {
    GVEX_RETURN_NOT_OK(SaveLocked(*snap));
    return info;
  }
  if (kind == SaveKind::kDelta) {
    if (!have_base) {
      return Status::FailedPrecondition(
          "a delta save needs a full base snapshot on disk first "
          "(Save(SaveKind::kFull) or Compact())");
    }
    info.delta = true;
    if (up_to_date) {
      info.wrote = false;  // the chain already persists this epoch
      return info;
    }
    GVEX_RETURN_NOT_OK(SaveDeltaLocked(*snap));
    return info;
  }
  // kAuto: delta when a base exists, the chain has room, and few enough
  // labels changed that rewriting the whole store is a waste of I/O.
  if (up_to_date) {
    info.wrote = false;
    return info;
  }
  const size_t total = snap->views->size();
  const bool delta_fits =
      have_base && options_.store.delta_max_chain > 0 &&
      store_->chain_length < options_.store.delta_max_chain && total > 0 &&
      static_cast<double>(store_->dirty_labels.size()) <=
          options_.store.delta_max_fraction * static_cast<double>(total);
  if (delta_fits) {
    GVEX_RETURN_NOT_OK(SaveDeltaLocked(*snap));
    info.delta = true;
    return info;
  }
  GVEX_RETURN_NOT_OK(SaveLocked(*snap));
  return info;
}

Result<uint64_t> ViewService::Compact() {
  if (read_only()) {
    return Status::FailedPrecondition(
        "read-only replica refuses compactions (Promote() first)");
  }
  if (store_ptr_.load(std::memory_order_acquire) == nullptr) {
    return Status::FailedPrecondition(
        "Compact() requires a durable service (ViewService::Open)");
  }
  // The outcome is also recorded in the store (stats() exposes it):
  // background compaction has no caller to return its status to, and a
  // silent persistent failure would just grow the WAL forever.
  const auto start = std::chrono::steady_clock::now();
  Result<uint64_t> result = [&]() -> Result<uint64_t> {
    std::lock_guard<std::mutex> lock(writer_mu_);
    std::shared_ptr<const Snapshot> snap = Load();
    GVEX_RETURN_NOT_OK(SaveLocked(*snap));
    // Every WAL record's epoch is <= the snapshot we just wrote (appends
    // serialize on writer_mu_), so the log is fully covered — which also
    // makes a failed reset retryable (see wal_needs_reset).
    store_->wal_needs_reset.store(true);
    GVEX_RETURN_NOT_OK(store_->wal.Reset());
    store_->wal_needs_reset.store(false);
    if (options_.store.prune_snapshots) {
      auto pruned = PruneSnapshots(store_->dir, snap->epoch);
      if (!pruned.ok()) return pruned.status();
      // The fresh full base covers every delta at or below it — the chain
      // folds back into a single file.
      auto delta_pruned = PruneDeltas(store_->dir, snap->epoch);
      if (!delta_pruned.ok()) return delta_pruned.status();
    }
    return snap->epoch;
  }();
  StoreObs().compaction_seconds->ObserveSeconds(SecondsSince(start));
  {
    std::lock_guard<std::mutex> lock(store_->status_mu);
    store_->last_compact_error =
        result.ok() ? "" : result.status().ToString();
  }
  if (result.ok()) {
    store_->compactions.fetch_add(1, std::memory_order_relaxed);
    obs::RecordFlight(obs::FlightKind::kCompact,
                      "compacted to epoch %llu",
                      static_cast<unsigned long long>(result.value()));
  } else {
    // The monotone counter keeps the failure visible after a later
    // success clears last_compact_error; the warning is rate-limited (a
    // small burst, then one per 5 s) so a persistently failing background
    // compactor cannot flood stderr.
    store_->compaction_failures.fetch_add(1, std::memory_order_relaxed);
    obs::RecordFlight(obs::FlightKind::kCompact, "compaction failed: %s",
                      result.status().ToString().c_str());
    static obs::RateLimiter* warn_limiter = new obs::RateLimiter(5.0, 2);
    if (warn_limiter->Allow()) {
      GVEX_LOG(kWarning) << "compaction failed: "
                         << result.status().ToString();
    }
  }
  return result;
}

void ViewService::MaybeScheduleCompact(uint64_t wal_bytes) {
  DurableStore* store = store_ptr_.load(std::memory_order_acquire);
  if (store == nullptr || options_.store.compact_wal_bytes == 0 ||
      wal_bytes < options_.store.compact_wal_bytes) {
    return;
  }
  bool expected = false;
  if (!store->compacting.compare_exchange_strong(expected, true)) {
    return;  // one compaction at a time
  }
  // compact_mu serializes handle join/assignment: another admitter that
  // wins the CAS the instant the worker clears the flag must wait here
  // until this move-assignment completed.
  std::lock_guard<std::mutex> lock(store->compact_mu);
  // The previous run's thread has finished its work (the flag was clear)
  // but may still need joining before the handle is reused.
  if (store->compactor.joinable()) store->compactor.join();
  store->compactor = std::thread([this, store] {
    // Best-effort: the WAL keeps everything recoverable, and the outcome
    // lands in last_compact_error for stats()/operators.
    (void)Compact();
    store->compacting.store(false);
  });
}

ViewServiceStats ViewService::stats() const {
  ViewServiceStats out;
  // One atomic snapshot load: epoch, label/code counts, and the admission
  // counters all describe the SAME published epoch — a stats() racing a
  // batch admission sees the batch entirely or not at all, never an epoch
  // whose counters have not been published with it.
  std::shared_ptr<const Snapshot> snap = Load();
  out.epoch = snap->epoch;
  out.num_labels = static_cast<int>(snap->views->size());
  out.num_codes = snap->index.num_codes();
  out.admitted_views = snap->admitted_views;
  out.admitted_batches = snap->admitted_batches;
  const IndexStats& istats = snap->index.stats();
  out.index_fallback_scans =
      istats.fallback_scans.load(std::memory_order_relaxed);
  out.index_inconsistent_postings =
      istats.inconsistent_postings.load(std::memory_order_relaxed);
  out.index_filtered_rejects =
      istats.filtered_rejects.load(std::memory_order_relaxed);
  // One shard lock at a time: a query records its hit or miss under
  // exactly one shard's lock, so a sequential sum can never split an
  // individual query's counters — and stats() never pauses the whole
  // cache.
  for (const auto& shard : cache_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.cache_hits += shard->hits;
    out.cache_misses += shard->misses;
  }
  DurableStore* store = store_ptr_.load(std::memory_order_acquire);
  if (store != nullptr) {
    out.compactions = store->compactions.load(std::memory_order_relaxed);
    out.compaction_failures =
        store->compaction_failures.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(store->status_mu);
    out.last_compact_error = store->last_compact_error;
  }
  return out;
}

}  // namespace gvex
