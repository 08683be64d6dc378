// ReplicaApplier: the standby side of WAL-shipping replication. Pulls the
// primary's store directory through a ReplicationEndpoint (manifest /
// ranged fetch / prefix CRC — store/replication.h), mirrors it byte-for-
// byte into a local directory it owns (holding the store LOCK exclusively,
// like any writer), and feeds the mirrored state through the SAME
// ReplayWal + PlanRecovery verdict a restarted primary would recover with.
// A read-only ViewService (ViewService::OpenReplica) publishes every
// validated epoch, so the standby answers queries the whole time.
//
// Sync state machine (one SyncOnce pass):
//   1. Pull the manifest. Unreachable primary = DEGRADED, retried forever.
//   2. Mirror snapshot/delta files: fetch missing ones (tmp + fsync +
//      rename, so a partially fetched file never exists under its real
//      name), delete ones the primary pruned. A same-named file with
//      different bytes is two histories — FAIL-STOP.
//   3. Mirror the WAL as a byte-identical prefix of the primary's:
//      * different first-record epochs = a benign generation change (the
//        primary compacted) — reset the local log and resync;
//      * equal first epochs + prefix-CRC mismatch = divergence — FAIL-STOP;
//      * a torn tail after fetching (the primary died or rolled back
//        mid-append) — truncate to the valid prefix and RE-REQUEST those
//        bytes next pass (a re-ship; a partial record is never applied).
//   4. Run PlanRecovery over the mirrored directory. A verdict failure
//      right after real progress is a mid-sync transient (retried); with
//      no progress and an unchanged manifest it is permanent — FAIL-STOP.
//      A plan whose final epoch is BELOW the replica's published epoch
//      would regress acknowledged state — FAIL-STOP.
//   5. Publish: WAL records that extend the current epoch contiguously go
//      through the cheap incremental path; anything else (new files, a
//      generation change, a gap) republishes the full recovered plan.
//
// FAIL-STOP is latched: once divergence or provable data loss is detected
// the applier never applies again and Promote() refuses — silent data loss
// is never an outcome. Metrics: gvex_replication_lag_{epochs,bytes} gauges
// plus applied/resync/reship/failstop counters; a `replication` health
// check reports ok (streaming) / degraded (primary unreachable) / fail
// (fail-stop latched).
//
// Promote(): stop the sync thread, release the applier's LOCK, and run
// ViewService::Promote() — recovery-verdict validation, LOCK re-taken by
// the service, WAL writer attached, service flips writable.
//
// Thread-safety: SyncOnce is NOT reentrant (one sync thread or one test
// driver); lag(), status(), and the health check are safe from any thread.

#ifndef GVEX_SERVE_REPLICA_APPLIER_H_
#define GVEX_SERVE_REPLICA_APPLIER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "serve/view_service.h"
#include "store/replication.h"
#include "util/file_io.h"
#include "util/status.h"

namespace gvex {

struct ReplicaApplierOptions {
  /// Background sync period (Start()); SyncOnce ignores it.
  double poll_interval_sec = 0.5;
  /// Ranged-fetch chunk size.
  uint64_t fetch_chunk_bytes = 1 << 20;
  /// Re-verify the full-file CRC of every mirrored snapshot/delta each
  /// pass (catches local corruption and same-name divergence immediately).
  /// Sizes are always compared; disable only for very large stores.
  bool verify_file_crcs = true;
};

/// Replication lag as of the last completed manifest pull.
struct ReplicationLag {
  uint64_t epochs = 0;  ///< primary epoch - replica epoch (0 when caught up)
  uint64_t bytes = 0;   ///< primary WAL bytes not yet validated locally
};

class ReplicaApplier {
 public:
  /// Takes ownership of `dir` (store LOCK held for the applier's lifetime)
  /// and of `endpoint`. `db`/`options` configure the read-only service.
  static Result<std::unique_ptr<ReplicaApplier>> Open(
      const std::string& dir, const GraphDatabase* db,
      std::unique_ptr<ReplicationEndpoint> endpoint,
      ViewServiceOptions service_options = {},
      ReplicaApplierOptions options = {});

  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// The read-only service publishing validated epochs (owned by the
  /// applier; valid for the applier's lifetime, including after Promote).
  ViewService* service() const { return service_.get(); }

  /// One full sync pass (deterministic building block for tests; the
  /// background thread just calls it on a timer). Transient errors
  /// (unreachable primary, mid-sync verdict failures) return non-OK and are
  /// safe to retry; after a FAIL-STOP every call returns the latched error.
  Status SyncOnce();

  /// Starts / stops the background sync thread (idempotent).
  void Start();
  void Stop();

  /// Stops the thread, refuses when fail-stopped, releases the applier's
  /// LOCK, and promotes the service writable. On success the applier is
  /// done (its service keeps running as a primary); on failure the LOCK is
  /// re-acquired and the replica keeps serving read-only.
  Result<uint64_t> Promote();

  ReplicationLag lag() const;
  /// OK while streaming; the latched fail-stop error after one.
  Status failstop_status() const;
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }

  /// Counters since this applier was opened.
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }
  uint64_t resyncs() const { return resyncs_.load(std::memory_order_relaxed); }
  uint64_t reships() const { return reships_.load(std::memory_order_relaxed); }

 private:
  ReplicaApplier() = default;

  Status SyncPass();
  /// Latches `why` as the permanent fail-stop verdict and returns it.
  Status FailStop(const Status& why);
  /// Fetches `info` whole from the primary and writes it into the mirror
  /// with AtomicWriteFile.
  Status MirrorFile(const ReplFileInfo& info);
  Status SyncWal(const ReplManifest& manifest, bool* progressed,
                 bool* files_changed);
  void SetLag(uint64_t lag_epochs, uint64_t lag_bytes);

  std::string dir_;
  DirLock lock_;
  std::unique_ptr<ReplicationEndpoint> endpoint_;
  ReplicaApplierOptions options_;
  std::unique_ptr<ViewService> service_;

  // Sync-thread state (only touched by SyncOnce / Promote).
  ReplManifest last_manifest_;
  bool have_last_manifest_ = false;

  // Cross-thread state.
  mutable std::mutex state_mu_;
  Status failstop_ = Status::OK();       ///< guarded by state_mu_
  Status last_sync_error_ = Status::OK();  ///< guarded by state_mu_
  std::atomic<uint64_t> lag_epochs_{0};
  std::atomic<uint64_t> lag_bytes_{0};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> reships_{0};
  std::atomic<bool> promoted_{false};

  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_requested_ = false;
  std::thread sync_thread_;

  std::vector<obs::HealthCheckHandle> health_handles_;
};

}  // namespace gvex

#endif  // GVEX_SERVE_REPLICA_APPLIER_H_
