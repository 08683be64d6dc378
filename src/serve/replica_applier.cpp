#include "serve/replica_applier.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "store/codec.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gvex {

namespace {

struct ReplObs {
  obs::Gauge* lag_epochs;
  obs::Gauge* lag_bytes;
  obs::Counter* applied;
  obs::Counter* resyncs;
  obs::Counter* reships;
  obs::Counter* failstops;
};

const ReplObs& Obs() {
  static const ReplObs obs = [] {
    auto& m = obs::Metrics();
    ReplObs o;
    o.lag_epochs = m.GetGauge(
        "gvex_replication_lag_epochs",
        "Epochs the replica trails the primary by (0 when caught up).");
    o.lag_bytes = m.GetGauge(
        "gvex_replication_lag_bytes",
        "Primary WAL bytes not yet validated on the replica.");
    o.applied = m.GetCounter("gvex_replication_applied_records_total",
                             "WAL admission records applied on the replica.");
    o.resyncs = m.GetCounter(
        "gvex_replication_resyncs_total",
        "Local WAL resets after a primary generation change (compaction).");
    o.reships = m.GetCounter(
        "gvex_replication_reships_total",
        "Torn or rolled-back WAL tails truncated and re-requested.");
    o.failstops = m.GetCounter(
        "gvex_replication_failstops_total",
        "Divergence or data-loss verdicts that latched fail-stop.");
    return o;
  }();
  return obs;
}

// Same snapshot/delta files and the same WAL generation: no save or
// compaction landed between the two pulls (appends may have grown the log).
bool SameGeneration(const ReplManifest& a, const ReplManifest& b) {
  if (a.wal_has_records != b.wal_has_records ||
      a.wal_first_epoch != b.wal_first_epoch ||
      a.files.size() != b.files.size()) {
    return false;
  }
  for (size_t i = 0; i < a.files.size(); ++i) {
    if (a.files[i].name != b.files[i].name ||
        a.files[i].bytes != b.files[i].bytes) {
      return false;
    }
  }
  return true;
}

bool SameManifest(const ReplManifest& a, const ReplManifest& b) {
  return a.epoch == b.epoch && a.wal_bytes == b.wal_bytes &&
         SameGeneration(a, b);
}

}  // namespace

Result<std::unique_ptr<ReplicaApplier>> ReplicaApplier::Open(
    const std::string& dir, const GraphDatabase* db,
    std::unique_ptr<ReplicationEndpoint> endpoint,
    ViewServiceOptions service_options, ReplicaApplierOptions options) {
  if (endpoint == nullptr) {
    return Status::InvalidArgument("replication endpoint is null");
  }
  GVEX_RETURN_NOT_OK(EnsureDir(dir));
  std::unique_ptr<ReplicaApplier> applier(new ReplicaApplier());
  applier->dir_ = dir;
  applier->endpoint_ = std::move(endpoint);
  applier->options_ = options;

  // Own the directory like any writer would: the LOCK keeps a second
  // applier (or a primary ViewService::Open) off the same mirror.
  GVEX_RETURN_NOT_OK(applier->lock_.TryLock(dir));

  GVEX_ASSIGN_OR_RETURN(
      applier->service_,
      ViewService::OpenReplica(dir, db, std::move(service_options)));

  ReplicaApplier* self = applier.get();
  applier->health_handles_.push_back(obs::RegisterHealthCheck(
      "replication", [self]() -> obs::HealthCheckResult {
        if (self->promoted()) {
          return {obs::HealthStatus::kOk, "promoted to primary"};
        }
        std::lock_guard<std::mutex> lock(self->state_mu_);
        if (!self->failstop_.ok()) {
          return {obs::HealthStatus::kFail,
                  "fail-stop: " + self->failstop_.ToString()};
        }
        if (!self->last_sync_error_.ok()) {
          return {obs::HealthStatus::kDegraded,
                  "sync failing: " + self->last_sync_error_.ToString()};
        }
        return {obs::HealthStatus::kOk,
                StrFormat("streaming (lag %llu epochs, %llu bytes)",
                          static_cast<unsigned long long>(
                              self->lag_epochs_.load(std::memory_order_relaxed)),
                          static_cast<unsigned long long>(
                              self->lag_bytes_.load(std::memory_order_relaxed)))};
      }));
  obs::RecordFlight(obs::FlightKind::kServer,
                    "replica applier attached to %s at epoch %llu",
                    dir.c_str(),
                    static_cast<unsigned long long>(self->service_->epoch()));
  return applier;
}

ReplicaApplier::~ReplicaApplier() {
  Stop();
  // The checks capture `this`; unregister before any state they read dies.
  health_handles_.clear();
}

Status ReplicaApplier::FailStop(const Status& why) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (failstop_.ok()) {
    failstop_ = why;
    Obs().failstops->Add(1);
    obs::RecordFlight(obs::FlightKind::kServer, "replication FAIL-STOP: %s",
                      why.ToString().c_str());
  }
  return failstop_;
}

void ReplicaApplier::SetLag(uint64_t lag_epochs, uint64_t lag_bytes) {
  lag_epochs_.store(lag_epochs, std::memory_order_relaxed);
  lag_bytes_.store(lag_bytes, std::memory_order_relaxed);
  Obs().lag_epochs->Set(static_cast<int64_t>(lag_epochs));
  Obs().lag_bytes->Set(static_cast<int64_t>(lag_bytes));
}

ReplicationLag ReplicaApplier::lag() const {
  ReplicationLag lag;
  lag.epochs = lag_epochs_.load(std::memory_order_relaxed);
  lag.bytes = lag_bytes_.load(std::memory_order_relaxed);
  return lag;
}

Status ReplicaApplier::failstop_status() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return failstop_;
}

Status ReplicaApplier::SyncOnce() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!failstop_.ok()) return failstop_;
  }
  if (promoted()) {
    return Status::FailedPrecondition("applier already promoted");
  }
  Status st = SyncPass();
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!failstop_.ok()) return failstop_;  // SyncPass latched one
  last_sync_error_ = st;
  return st;
}

Status ReplicaApplier::MirrorFile(const ReplFileInfo& info) {
  // Fetched whole, then written atomically: a half-fetched snapshot/delta
  // never exists under its real name, so PlanRecovery only ever sees
  // complete mirrors.
  std::string bytes;
  while (bytes.size() < info.bytes) {
    const uint64_t want = std::min<uint64_t>(options_.fetch_chunk_bytes,
                                             info.bytes - bytes.size());
    auto chunk = endpoint_->Fetch(info.name, bytes.size(), want);
    if (!chunk.ok()) return chunk.status();
    if (chunk.value().empty()) {
      // The file shrank or vanished on the primary mid-fetch (pruned by a
      // compaction); the next manifest reconciles it.
      return Status::Aborted(StrFormat(
          "%s changed on the primary mid-fetch", info.name.c_str()));
    }
    bytes += chunk.value();
  }
  return AtomicWriteFile(dir_ + "/" + info.name, bytes);
}

Status ReplicaApplier::SyncWal(const ReplManifest& manifest, bool* progressed,
                               bool* files_changed) {
  const std::string wal_path = dir_ + "/" + WalFileName();
  auto local_size = FileSize(wal_path);
  const bool local_exists = local_size.ok();
  uint64_t local_bytes = local_size.value_or(0);

  if (manifest.wal_bytes == 0) {
    // The primary has no WAL file at all (fresh directory). If the replica
    // mirrored one earlier this is a generation change; any applied epochs
    // the primary cannot reach fail-stop at the PlanRecovery check below.
    if (local_exists) {
      if (::unlink(wal_path.c_str()) != 0 && errno != ENOENT) {
        return Status::IOError(StrFormat("unlink %s: %s", wal_path.c_str(),
                                         strerror(errno)));
      }
      resyncs_.fetch_add(1, std::memory_order_relaxed);
      Obs().resyncs->Add(1);
      *progressed = true;
      *files_changed = true;
    }
    return Status::OK();
  }

  // Generation identity: a legit WAL reset (Compact) starts the new log at
  // a strictly larger first epoch. Different first epochs = resync, not
  // divergence.
  bool reset_local = false;
  if (local_exists && local_bytes > 0) {
    auto local_start = ReadWalStart(wal_path);
    if (!local_start.ok()) return local_start.status();
    const bool local_has = local_start.value().has_records;
    if (local_has && manifest.wal_has_records &&
        local_start.value().first_epoch != manifest.wal_first_epoch) {
      reset_local = true;
    } else if (local_has && !manifest.wal_has_records) {
      reset_local = true;  // the primary reset to an empty (header-only) log
    }
  }
  // Every change to the local mirror below goes through this one handle;
  // opening it creates the log when the replica has none yet.
  AppendFile wal;
  GVEX_RETURN_NOT_OK(wal.Open(wal_path, /*truncate=*/reset_local));
  if (reset_local) {
    local_bytes = 0;
    resyncs_.fetch_add(1, std::memory_order_relaxed);
    Obs().resyncs->Add(1);
    *progressed = true;
    *files_changed = true;
  }

  // Same generation: the shared prefix must be byte-identical, or the two
  // logs are divergent histories.
  const uint64_t shared = std::min(local_bytes, manifest.wal_bytes);
  if (shared > 0) {
    auto remote_crc = endpoint_->PrefixCrc(WalFileName(), shared);
    if (!remote_crc.ok()) return remote_crc.status();
    auto local_crc = ReplicationSource(dir_, nullptr)
                         .PrefixCrc(WalFileName(), shared);
    if (!local_crc.ok()) return local_crc.status();
    if (remote_crc.value() != local_crc.value()) {
      // A fail-stop verdict needs a STABLE observation: the primary may
      // have compacted (resetting the WAL to a new generation) between the
      // manifest pull and this CRC probe, which makes the comparison
      // meaningless. First epochs strictly increase across resets, so an
      // unchanged WAL identity on a fresh manifest proves no reset raced
      // this pass — only then is the mismatch a genuine fork.
      auto fresh = endpoint_->Manifest();
      if (!fresh.ok()) return fresh.status();
      if (fresh.value().wal_first_epoch != manifest.wal_first_epoch ||
          fresh.value().wal_has_records != manifest.wal_has_records ||
          fresh.value().wal_bytes < shared) {
        return Status::Aborted(
            "primary WAL changed generation mid-pass; retrying");
      }
      return FailStop(Status::IOError(StrFormat(
          "replication divergence: WAL prefixes disagree over the first "
          "%llu bytes (local CRC %08x, primary %08x) — the replica and "
          "primary histories have forked",
          static_cast<unsigned long long>(shared), local_crc.value(),
          remote_crc.value())));
    }
  }

  // The primary's log is SHORTER than our mirror of it: it dropped a torn
  // tail on restart or rolled back an append that never fsynced. Those
  // bytes were never applied here unless the replica published them — in
  // which case the PlanRecovery regression check below fail-stops.
  if (local_bytes > manifest.wal_bytes) {
    GVEX_RETURN_NOT_OK(wal.TruncateTo(manifest.wal_bytes));
    local_bytes = manifest.wal_bytes;
    reships_.fetch_add(1, std::memory_order_relaxed);
    Obs().reships->Add(1);
    *progressed = true;
    *files_changed = true;  // force the full-plan publish path
  }

  // Append the missing suffix [local_bytes, manifest.wal_bytes).
  if (local_bytes < manifest.wal_bytes) {
    uint64_t offset = local_bytes;
    Status fetch_status = Status::OK();
    while (offset < manifest.wal_bytes) {
      const uint64_t want = std::min<uint64_t>(options_.fetch_chunk_bytes,
                                               manifest.wal_bytes - offset);
      auto chunk = endpoint_->Fetch(WalFileName(), offset, want);
      if (!chunk.ok()) {
        fetch_status = chunk.status();
        break;
      }
      if (chunk.value().empty()) break;  // primary log shrank mid-pass
      fetch_status = wal.Append(chunk.value());
      if (!fetch_status.ok()) break;
      offset += chunk.value().size();
    }
    // Bytes count as mirrored only once they are durable: a failed fsync
    // leaves local_bytes (and the lag the standby reports) where it was,
    // and the next pass re-checks the prefix and re-ships.
    GVEX_RETURN_NOT_OK(wal.Sync());
    if (offset > local_bytes) *progressed = true;
    local_bytes = offset;
    if (!fetch_status.ok()) return fetch_status;
  }

  // Validate the mirror the same way recovery would: keep the longest
  // valid prefix; torn bytes are truncated and RE-REQUESTED next pass (a
  // partial record is never applied — that is the re-ship contract).
  auto replay = ReplayWal(wal_path);
  if (!replay.ok()) {
    if (replay.status().IsNotFound()) return Status::OK();
    // A mirrored byte-identical prefix whose header does not even parse
    // means the primary's own log is corrupt — not retryable.
    return FailStop(replay.status());
  }
  if (replay.value().torn_tail && replay.value().valid_bytes < local_bytes) {
    GVEX_RETURN_NOT_OK(wal.TruncateTo(replay.value().valid_bytes));
    reships_.fetch_add(1, std::memory_order_relaxed);
    Obs().reships->Add(1);
  }
  return wal.Close();
}

Status ReplicaApplier::SyncPass() {
  auto manifest_or = endpoint_->Manifest();
  if (!manifest_or.ok()) return manifest_or.status();
  const ReplManifest manifest = std::move(manifest_or).value();

  bool progressed = false;
  bool files_changed = false;

  // Local inventory through the same listing rules the primary serves.
  ReplicationSource local(dir_, [] { return uint64_t{0}; });
  auto local_or = local.Manifest();
  if (!local_or.ok()) return local_or.status();
  std::map<std::string, uint64_t> local_files;
  for (const ReplFileInfo& f : local_or.value().files) {
    local_files[f.name] = f.bytes;
  }

  // 1. Mirror snapshot/delta files. Same name + different bytes is two
  //    histories under one name — fail-stop, never overwrite.
  for (const ReplFileInfo& f : manifest.files) {
    auto it = local_files.find(f.name);
    if (it != local_files.end()) {
      if (it->second != f.bytes) {
        return FailStop(Status::IOError(StrFormat(
            "replication divergence: %s is %llu bytes locally but %llu on "
            "the primary — refusing to overwrite acknowledged state",
            f.name.c_str(), static_cast<unsigned long long>(it->second),
            static_cast<unsigned long long>(f.bytes))));
      }
      if (options_.verify_file_crcs) {
        auto remote_crc = endpoint_->PrefixCrc(f.name, f.bytes);
        if (!remote_crc.ok()) return remote_crc.status();
        auto local_crc = local.PrefixCrc(f.name, f.bytes);
        if (!local_crc.ok()) return local_crc.status();
        if (remote_crc.value() != local_crc.value()) {
          return FailStop(Status::IOError(StrFormat(
              "replication divergence: %s differs from the primary's copy "
              "(local CRC %08x, primary %08x)",
              f.name.c_str(), local_crc.value(), remote_crc.value())));
        }
      }
      continue;
    }
    Status st = MirrorFile(f);
    if (!st.ok()) return st;
    files_changed = true;
    progressed = true;
  }

  // 2. Drop local files the primary pruned (compaction cleanup).
  std::set<std::string> primary_names;
  for (const ReplFileInfo& f : manifest.files) primary_names.insert(f.name);
  for (const auto& [name, bytes] : local_files) {
    (void)bytes;
    if (primary_names.count(name) != 0) continue;
    const std::string path = dir_ + "/" + name;
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(
          StrFormat("unlink %s: %s", path.c_str(), strerror(errno)));
    }
    files_changed = true;
    progressed = true;
  }
  if (files_changed) GVEX_RETURN_NOT_OK(FsyncPath(dir_));

  // 3. Mirror the WAL (generation check, prefix CRC, append, torn-tail
  //    truncate + re-ship).
  GVEX_RETURN_NOT_OK(SyncWal(manifest, &progressed, &files_changed));

  // 4. The same recovery verdict a restarting primary would compute. A
  //    failure right after progress is a mid-sync transient; with nothing
  //    fetched and an unchanged manifest it can never heal — fail-stop.
  auto plan_or = PlanRecovery(dir_);
  if (!plan_or.ok()) {
    const bool manifest_changed =
        !have_last_manifest_ || !SameManifest(last_manifest_, manifest);
    last_manifest_ = manifest;
    have_last_manifest_ = true;
    if (progressed || manifest_changed) return plan_or.status();
    return FailStop(plan_or.status());
  }
  RecoveryPlan plan = std::move(plan_or).value();
  const uint64_t local_wal_valid = plan.have_wal ? plan.replay.valid_bytes : 0;
  const uint64_t before = service_->epoch();
  if (plan.final_epoch < before) {
    // Like a WAL fork, this verdict needs a STABLE observation. A manifest
    // lists the files before it reads the WAL, so a Compact landing in
    // between (new snapshot, then WAL reset) reads as the old files plus a
    // reset log: an older verdict, not lost state. An unchanged generation
    // on a fresh manifest proves no compaction raced this pass.
    auto fresh = endpoint_->Manifest();
    if (!fresh.ok()) return fresh.status();
    if (!SameGeneration(fresh.value(), manifest)) {
      return Status::Aborted("primary compacted mid-pass; retrying");
    }
    return FailStop(Status::IOError(StrFormat(
        "replication would regress the replica from epoch %llu to %llu — "
        "state this replica acknowledged is missing from the primary",
        static_cast<unsigned long long>(before),
        static_cast<unsigned long long>(plan.final_epoch))));
  }
  if (plan.final_epoch > before) {
    Status apply;
    if (files_changed || before < plan.snapshot.epoch) {
      apply = service_->ReplicaPublishPlan(std::move(plan));
    } else {
      apply = service_->ReplicaApplyWalRecords(plan.replay.records);
      if (apply.IsFailedPrecondition()) {
        // Epoch gap the cheap path cannot bridge — full verdict publish.
        apply = service_->ReplicaPublishPlan(std::move(plan));
      }
    }
    if (!apply.ok()) return apply;
    const uint64_t applied = service_->epoch() - before;
    applied_records_.fetch_add(applied, std::memory_order_relaxed);
    Obs().applied->Add(applied);
  }

  // 5. Lag as of this manifest.
  const uint64_t cur = service_->epoch();
  SetLag(manifest.epoch > cur ? manifest.epoch - cur : 0,
         manifest.wal_bytes > local_wal_valid
             ? manifest.wal_bytes - local_wal_valid
             : 0);
  last_manifest_ = manifest;
  have_last_manifest_ = true;
  return Status::OK();
}

void ReplicaApplier::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (sync_thread_.joinable()) return;
  stop_requested_ = false;
  sync_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(thread_mu_);
    while (!stop_requested_) {
      lock.unlock();
      (void)SyncOnce();
      lock.lock();
      if (stop_requested_) break;
      thread_cv_.wait_for(
          lock, std::chrono::duration<double>(options_.poll_interval_sec));
    }
  });
}

void ReplicaApplier::Stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stop_requested_ = true;
    thread_cv_.notify_all();
    worker = std::move(sync_thread_);
  }
  if (worker.joinable()) worker.join();
}

Result<uint64_t> ReplicaApplier::Promote() {
  Stop();
  if (promoted()) return service_->epoch();  // idempotent
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!failstop_.ok()) {
      return Status::FailedPrecondition(StrFormat(
          "refusing to promote a fail-stopped replica: %s",
          failstop_.ToString().c_str()));
    }
  }
  // Hand the LOCK to the service: release ours, let Promote re-acquire it
  // exclusively (it refuses if anyone else grabbed the store meanwhile).
  lock_.Release();
  Status st = service_->Promote();
  if (!st.ok()) {
    // Keep mirroring read-only: re-take the LOCK so the dir stays owned.
    // Best effort: if another process took it meanwhile, the promote error
    // is still the one the caller needs.
    (void)lock_.TryLock(dir_);
    return st;
  }
  promoted_.store(true, std::memory_order_release);
  SetLag(0, 0);
  return service_->epoch();
}

}  // namespace gvex
