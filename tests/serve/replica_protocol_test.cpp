// Protocol-level contract for replica mode: every mutating verb answers
// the EXACT refusal `err read-only replica` (and counts it), observability
// verbs report the replica role and replication lag, and `promote` flips
// the SAME live session writable mid-stream. These strings are matched
// verbatim by clients and ops tooling — changing them is a protocol break.

#include "serve/serve_protocol.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "explain/view_io.h"
#include "obs/metrics.h"
#include "serve/replica_applier.h"
#include "serve/synthetic_store.h"
#include "serve/view_service.h"
#include "store/replication.h"
#include "store/store_test_util.h"
#include "util/string_util.h"

namespace gvex {
namespace {

using testing::ScratchDir;

uint64_t RefusedCount() {
  return obs::Metrics()
      .GetCounter("gvex_replica_refused_total",
                  "Mutating requests refused because this service is a "
                  "read-only replica")
      ->Value();
}

class ReplicaProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = synthetic::MakeSyntheticStore(33, /*num_labels=*/2);
    ASSERT_TRUE(primary_dir_.ok() && replica_dir_.ok());
    auto opened = ViewService::Open(primary_dir_.path(), &store_.db, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    primary_ = std::move(opened).value();
    ASSERT_TRUE(primary_->AdmitViews(store_.views).ok());
    auto applier_or = ReplicaApplier::Open(
        replica_dir_.path(), &store_.db,
        std::make_unique<LocalEndpoint>(primary_dir_.path()));
    ASSERT_TRUE(applier_or.ok()) << applier_or.status().ToString();
    applier_ = std::move(applier_or).value();
    ASSERT_TRUE(applier_->SyncOnce().ok());
    ASSERT_EQ(applier_->service()->epoch(), 1u);
  }

  ViewService* replica() { return applier_->service(); }

  synthetic::SyntheticStore store_;
  ScratchDir primary_dir_, replica_dir_;
  std::unique_ptr<ViewService> primary_;
  std::unique_ptr<ReplicaApplier> applier_;
};

// Every mutating verb on a replica: the exact protocol refusal, one
// counter bump each, and no state change. Queries keep working between
// the refusals.
TEST_F(ReplicaProtocolTest, MutatingVerbsAnswerExactRefusalAndCount) {
  const uint64_t before = RefusedCount();
  const uint64_t epoch_before = replica()->epoch();

  ExplanationView view = store_.views[0];
  view.label = 7;
  EXPECT_EQ(ServeText(replica(), "admit\n" + SerializeView(view)),
            "err read-only replica\n");
  EXPECT_EQ(ServeText(replica(), "save\n"), "err read-only replica\n");
  EXPECT_EQ(ServeText(replica(), "save --full\n"),
            "err read-only replica\n");
  EXPECT_EQ(ServeText(replica(), "compact\n"), "err read-only replica\n");

  EXPECT_EQ(RefusedCount(), before + 4);
  EXPECT_EQ(replica()->epoch(), epoch_before);
  // Reads were never refused.
  EXPECT_EQ(ServeText(replica(), "labels\n"), "ok 2\nids 0 1\n");
}

// `health`, `metrics`, and `stats` must all tell an operator they are
// looking at a replica, and how far behind it is.
TEST_F(ReplicaProtocolTest, ObservabilityReportsRoleAndLag) {
  // stats: role rides at the end of the line; a session with a lag probe
  // appends the lag the applier measured.
  std::string out = ServeText(replica(), "stats\n");
  EXPECT_NE(out.find(" role replica"), std::string::npos) << out;

  ServeSession session;
  session.service = replica();
  ReplicaApplier* applier = applier_.get();
  session.lag_probe = [applier] { return applier->lag(); };
  out = ServeText(session, "stats\n");
  EXPECT_NE(out.find(" role replica lag_epochs 0 lag_bytes 0"),
            std::string::npos)
      << out;

  // metrics: the role gauge and the replication lag gauges are scraped
  // from the same exposition.
  out = ServeText(replica(), "metrics\n");
  EXPECT_NE(out.find("gvex_service_replica 1\n"), std::string::npos) << out;
  EXPECT_NE(out.find("gvex_replication_lag_epochs"), std::string::npos)
      << out;
  EXPECT_NE(out.find("gvex_replication_lag_bytes"), std::string::npos)
      << out;

  // health: the applier registered a `replication` row; while streaming
  // cleanly it reports ok with the lag.
  out = ServeText(replica(), "health\n");
  ASSERT_TRUE(StartsWith(out, "ok ")) << out;
  EXPECT_NE(out.find("replication"), std::string::npos) << out;
  EXPECT_NE(out.find("streaming"), std::string::npos) << out;
}

// `promote` through the session hook flips the SAME live session: the
// admit that was just refused succeeds the moment promotion lands, and
// every role surface flips to primary.
TEST_F(ReplicaProtocolTest, PromoteFlipsTheLiveSession) {
  ServeSession session;
  session.service = replica();
  ReplicaApplier* applier = applier_.get();
  session.promote = [applier] { return applier->Promote(); };

  ExplanationView view = store_.views[0];
  view.label = 9;
  const std::string admit_req = "admit\n" + SerializeView(view);
  EXPECT_EQ(ServeText(session, admit_req), "err read-only replica\n");

  primary_.reset();  // the primary dies; the operator promotes
  std::string out = ServeText(session, "promote\n");
  EXPECT_EQ(out, "ok promoted epoch 1\n");

  out = ServeText(session, admit_req);
  EXPECT_TRUE(StartsWith(out, "ok admitted 9 epoch 2")) << out;
  out = ServeText(session, "stats\n");
  EXPECT_NE(out.find(" role primary"), std::string::npos) << out;
  out = ServeText(replica(), "metrics\n");
  EXPECT_NE(out.find("gvex_service_replica 0\n"), std::string::npos) << out;
  out = ServeText(replica(), "health\n");
  EXPECT_NE(out.find("promoted to primary"), std::string::npos) << out;
}

// `promote` against a service that never was a replica is refused with
// its own exact protocol answer.
TEST_F(ReplicaProtocolTest, PromoteOnPrimaryIsRefused) {
  EXPECT_EQ(ServeText(primary_.get(), "promote\n"),
            "err not a replica (already primary)\n");
}

}  // namespace
}  // namespace gvex
