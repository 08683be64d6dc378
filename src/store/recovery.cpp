#include "store/recovery.h"

#include <algorithm>
#include <utility>

#include "util/file_io.h"
#include "util/string_util.h"

namespace gvex {

Result<RecoveryPlan> PlanRecovery(const std::string& dir) {
  RecoveryPlan plan;
  GVEX_ASSIGN_OR_RETURN(plan.epochs, ListSnapshotEpochs(dir));
  GVEX_ASSIGN_OR_RETURN(plan.delta_epochs, ListDeltaEpochs(dir));

  // Newest base snapshot that validates wins; older ones are fallbacks
  // against a corrupted latest file (atomic writes make that unlikely,
  // torn disks happen anyway). An older base can still re-attach deltas
  // below — chains are resolved per-base, so the fallback walks THROUGH
  // any deltas recorded against the older base's chain.
  std::string last_error;
  for (auto it = plan.epochs.rbegin(); it != plan.epochs.rend(); ++it) {
    auto loaded = LoadSnapshot(dir + "/" + SnapshotFileName(*it));
    if (loaded.ok()) {
      plan.snapshot = std::move(loaded).value();
      plan.have_snapshot = true;
      plan.base_epoch = *it;
      break;
    }
    last_error = loaded.status().ToString();
  }
  if (!plan.have_snapshot && !plan.epochs.empty()) {
    return Status::IOError(
        StrFormat("no snapshot in %s validates (last error: %s)",
                  dir.c_str(), last_error.c_str()));
  }

  // Fold the delta chain onto the base, ascending: a delta attaches iff
  // its parent epoch is EXACTLY the chain tip so far (deltas record the
  // previously persisted image they were computed against). Deltas at or
  // below the tip are stale leftovers of a superseded chain and are
  // skipped; a delta whose parent is ahead of the tip cannot attach (the
  // image in between never became durable or is gone) and stops the walk
  // — the newest-acknowledged-epoch check below then decides whether the
  // WAL still reaches that state or recovery must fail-stop. Applying any
  // delta invalidates the base's postings: the view set changed, so the
  // index must be rebuilt over the merged views.
  plan.postings_valid = plan.have_snapshot;
  if (plan.have_snapshot) {
    for (uint64_t delta_epoch : plan.delta_epochs) {
      if (delta_epoch <= plan.snapshot.epoch) continue;  // stale
      auto delta = LoadDelta(dir + "/" + DeltaFileName(delta_epoch));
      if (!delta.ok()) break;  // broken chain: nothing later can attach
      if (delta.value().parent_epoch < plan.snapshot.epoch) {
        continue;  // superseded branch — cannot attach, may be prunable
      }
      if (delta.value().parent_epoch > plan.snapshot.epoch) {
        break;  // gap: its parent image is unreachable
      }
      for (auto& [label, view] : delta.value().views) {
        plan.snapshot.views[label] = std::move(view);
      }
      plan.snapshot.epoch = delta_epoch;
      plan.chain.push_back(delta_epoch);
      plan.postings_valid = false;
    }
  }
  if (!plan.chain.empty()) plan.snapshot.postings.clear();

  auto replayed = ReplayWal(dir + "/" + WalFileName());
  if (replayed.ok()) {
    plan.replay = std::move(replayed).value();
    plan.have_wal = true;
  } else if (!replayed.status().IsNotFound()) {
    return replayed.status();
  }

  // Admissions bump the epoch by exactly one, so a replayable log is
  // contiguous from the chain tip. A gap proves acknowledged state is
  // unreachable — e.g. Compact wrote snapshot-N and reset the WAL,
  // snapshot-N later corrupted, and recovery fell back to an older chain.
  // Replaying over the gap would silently drop the admissions that only
  // snapshot-N held (and the final-epoch check below cannot see it,
  // because replay still ends at the newest epoch); fail-stop.
  plan.final_epoch = plan.snapshot.epoch;
  for (const WalRecord& record : plan.replay.records) {
    if (record.epoch <= plan.final_epoch) continue;  // folded into the chain
    if (record.epoch != plan.final_epoch + 1) {
      return Status::IOError(StrFormat(
          "WAL record for epoch %llu cannot attach to recovered epoch %llu "
          "— the admissions in between were acknowledged but no snapshot "
          "chain or WAL record reaches them; restore a snapshot covering "
          "epoch %llu, or delete the WAL to accept losing the logged "
          "admissions",
          static_cast<unsigned long long>(record.epoch),
          static_cast<unsigned long long>(plan.final_epoch),
          static_cast<unsigned long long>(record.epoch - 1)));
    }
    plan.final_epoch = record.epoch;
  }

  // Fail-stop on provable data loss: a snapshot or delta FILE for a newer
  // epoch exists (that state was once acknowledged) but neither a valid
  // chain nor the WAL can reach it — e.g. the newest image is corrupt and
  // Compact already reset the WAL. Serving the older state silently would
  // drop acknowledged admissions; make the operator decide (delete the
  // corrupt file to accept the rollback).
  uint64_t newest_on_disk = plan.epochs.empty() ? 0 : plan.epochs.back();
  if (!plan.delta_epochs.empty()) {
    newest_on_disk = std::max(newest_on_disk, plan.delta_epochs.back());
  }
  if (plan.final_epoch < newest_on_disk) {
    const bool newest_is_delta =
        !plan.delta_epochs.empty() && plan.delta_epochs.back() == newest_on_disk;
    const std::string newest_name =
        newest_is_delta ? DeltaFileName(newest_on_disk)
                        : SnapshotFileName(newest_on_disk);
    return Status::IOError(StrFormat(
        "recovery reaches epoch %llu but %s/%s exists and does not attach — "
        "acknowledged state would be lost; delete the corrupt %s to accept "
        "rolling back",
        static_cast<unsigned long long>(plan.final_epoch), dir.c_str(),
        newest_name.c_str(), newest_is_delta ? "delta" : "snapshot"));
  }
  return plan;
}

Result<StoreVerifyReport> VerifyStore(const std::string& dir) {
  StoreVerifyReport report;
  report.writer_active = DirLock::WriterActive(dir);
  GVEX_ASSIGN_OR_RETURN(report.plan, PlanRecovery(dir));
  return report;
}

}  // namespace gvex
