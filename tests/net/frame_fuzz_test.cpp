// Satellite suite: the incremental framer under adversarial byte
// delivery. TCP may split or coalesce the request stream arbitrarily, so
// the framer is fuzzed with seeded random chunkings — from a 1-byte drip
// to jumbo batches — and every chunking must produce responses
// byte-identical to the stdin path (ServeText over the whole stream at
// once). Truncated payload blocks and oversized lines get "err" (or a
// clean close), never a crash, a hang, or a half-executed request.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/net_test_util.h"
#include "net/workload.h"
#include "obs/metrics.h"
#include "serve/serve_protocol.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gvex {
namespace {

using testing::BlockingClient;
using testing::NormalizeUptime;
using testing::TestServer;
using testing::TinyNetStore;

// Current value of a frame-error counter (satellite assertions check the
// error path also INCREMENTS the matching counter, not just answers err).
uint64_t FrameErrors(const std::string& reason) {
  return obs::Metrics()
      .GetCounter("gvex_net_frame_errors_total",
                  "Connections closed by the incremental framer, per reason",
                  "reason", reason)
      ->Value();
}

class FrameFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = TinyNetStore(17, /*num_labels=*/3);
    SyntheticWorkloadOptions wopts;
    wopts.read_weight = 1.0;
    wopts.admit_weight = 0.3;
    wopts.stats_weight = 0.1;
    mix_ = BuildSyntheticMix(store_, wopts);
    ASSERT_FALSE(mix_.empty());
  }

  /// A fresh service over the synthetic store — the oracle and every
  /// framer run must execute against identical state.
  std::unique_ptr<ViewService> FreshService() {
    auto service =
        std::make_unique<ViewService>(&store_.db, ViewServiceOptions());
    auto views = store_.views;
    EXPECT_TRUE(service->AdmitViews(std::move(views)).ok());
    return service;
  }

  /// A seeded random pipelined request stream drawn from the mix.
  std::string RandomStream(uint64_t seed, int requests) {
    Rng rng(seed);
    std::string stream;
    for (int i = 0; i < requests; ++i) {
      stream += mix_[rng.NextUint(mix_.size())].text;
    }
    return stream;
  }

  synthetic::SyntheticStore store_;
  std::vector<LoadgenRequest> mix_;
};

// The tentpole property: ANY split/coalescing of a valid request stream
// yields byte-identical responses to feeding the stream whole. Chunk
// sizes are drawn from a distribution spanning 1-byte drips, small
// fragments, and jumbo chunks covering many requests at once.
TEST_F(FrameFuzzTest, RandomChunkingMatchesStdinPathByteForByte) {
  const std::string stream = RandomStream(/*seed=*/1, /*requests=*/60);
  auto oracle_service = FreshService();
  const std::string expected = ServeText(oracle_service.get(), stream);

  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(1000 + seed);
    RequestFramer framer;
    auto service = FreshService();
    std::string responses;
    size_t off = 0;
    while (off < stream.size()) {
      size_t chunk;
      switch (rng.NextUint(4)) {
        case 0: chunk = 1; break;                       // drip
        case 1: chunk = 1 + rng.NextUint(16); break;    // fragment
        case 2: chunk = 1 + rng.NextUint(512); break;   // segment
        default: chunk = 1 + rng.NextUint(stream.size()); break;  // jumbo
      }
      chunk = std::min(chunk, stream.size() - off);
      framer.Feed(stream.data() + off, chunk);
      off += chunk;
      std::string frame, error;
      while (framer.Pop(&frame, &error) == RequestFramer::Next::kFrame) {
        responses += ServeText(service.get(), frame);
      }
    }
    EXPECT_EQ(NormalizeUptime(responses), NormalizeUptime(expected))
        << "chunking seed " << seed;
    EXPECT_TRUE(framer.idle()) << "chunking seed " << seed;
  }
}

// Truncating the stream at EVERY byte offset must never crash, hang, or
// surface a partial frame: the popped frames are exactly the requests
// whose bytes fully arrived.
TEST_F(FrameFuzzTest, EveryTruncationPointIsSafe) {
  const std::string stream = RandomStream(/*seed=*/2, /*requests=*/6);
  // Reference frame sequence from the unfragmented stream.
  std::vector<std::string> full_frames;
  {
    RequestFramer framer;
    framer.Feed(stream.data(), stream.size());
    std::string frame, error;
    while (framer.Pop(&frame, &error) == RequestFramer::Next::kFrame) {
      full_frames.push_back(frame);
    }
  }
  ASSERT_GE(full_frames.size(), 6u);

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    RequestFramer framer;
    framer.Feed(stream.data(), cut);
    std::string frame, error;
    std::vector<std::string> frames;
    while (framer.Pop(&frame, &error) == RequestFramer::Next::kFrame) {
      frames.push_back(frame);
    }
    ASSERT_LE(frames.size(), full_frames.size()) << "cut " << cut;
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(frames[i], full_frames[i]) << "cut " << cut;
    }
  }
}

// netcat-style CRLF line ends frame exactly like LF ones: each line's CR
// is dropped from the frame and from the max_frame_bytes measure.
TEST_F(FrameFuzzTest, CrLfLinesFrameLikeLfLines) {
  const std::string stream = RandomStream(/*seed=*/4, /*requests=*/20);
  std::string crlf;
  for (char c : stream) {
    crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  }
  std::vector<std::string> want;
  size_t largest = 0;
  {
    RequestFramer framer;
    framer.Feed(stream.data(), stream.size());
    std::string frame, error;
    while (framer.Pop(&frame, &error) == RequestFramer::Next::kFrame) {
      largest = std::max(largest, frame.size());
      want.push_back(frame);
    }
  }
  RequestFramer::Limits limits;
  limits.max_frame_bytes = largest;
  RequestFramer framer(limits);
  for (size_t off = 0; off < crlf.size(); off += 7) {
    framer.Feed(crlf.data() + off, std::min<size_t>(7, crlf.size() - off));
  }
  std::string frame, error;
  std::vector<std::string> got;
  while (framer.Pop(&frame, &error) == RequestFramer::Next::kFrame) {
    got.push_back(frame);
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(framer.idle());
}

// Oversized keyword line: the framer answers a protocol-shaped "err" and
// goes terminally broken (resync inside unknown bytes is unsafe).
TEST_F(FrameFuzzTest, OversizedLineBreaksWithErr) {
  RequestFramer::Limits limits;
  limits.max_line_bytes = 64;
  RequestFramer framer(limits);
  const std::string line(500, 'x');
  framer.Feed(line.data(), line.size());
  std::string frame, error;
  EXPECT_EQ(framer.Pop(&frame, &error), RequestFramer::Next::kBroken);
  EXPECT_EQ(error, "err line exceeds 64 bytes\n");
  // Broken is sticky.
  framer.Feed("labels\n", 7);
  EXPECT_EQ(framer.Pop(&frame, &error), RequestFramer::Next::kBroken);
}

// A payload block that never terminates trips the frame byte limit.
TEST_F(FrameFuzzTest, RunawayPayloadBlockBreaksWithErr) {
  RequestFramer::Limits limits;
  limits.max_frame_bytes = 256;
  RequestFramer framer(limits);
  std::string stream = "admit\n";
  for (int i = 0; i < 64; ++i) stream += "view 0 0.5 0 0\n";
  framer.Feed(stream.data(), stream.size());
  std::string frame, error;
  EXPECT_EQ(framer.Pop(&frame, &error), RequestFramer::Next::kBroken);
  EXPECT_EQ(error, "err request exceeds 256 bytes\n");
}

// --- Socket-level parity: the same properties over a real connection ---

// One-byte drip through an actual server socket: responses match the
// stdin path exactly.
TEST_F(FrameFuzzTest, OneByteDripOverSocket) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  const std::string stream =
      "labels\n" + mix_[1].text + "stats\nquit\n";
  auto oracle_service = FreshService();
  const std::string expected = ServeText(oracle_service.get(), stream);

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  for (char c : stream) {
    ASSERT_TRUE(client.SendAll(std::string(1, c)));
  }
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));  // quit closes the connection
  EXPECT_EQ(NormalizeUptime(got), NormalizeUptime(expected));
}

// Jumbo batch: hundreds of pipelined requests in a single send; the
// response stream is byte-identical to the stdin path.
TEST_F(FrameFuzzTest, JumboPipelinedBatchOverSocket) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  const std::string stream = RandomStream(/*seed=*/3, /*requests=*/200);
  auto oracle_service = FreshService();
  const std::string expected = ServeText(oracle_service.get(), stream);

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll(stream));
  client.ShutdownWrite();  // EOF flushes everything framed, then closes
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));
  EXPECT_EQ(NormalizeUptime(got), NormalizeUptime(expected));
}

// A complete frame whose payload carries malformed numerics must answer
// "err" and KEEP THE STREAM ALIVE — the satellite-4 hardening regression
// at the socket level (std::stoi would have crashed the server here). So
// must a graph with more node lines than it declares, and `open <dir>`,
// which is no verb: a client cannot make the server create or lock a
// store directory.
TEST_F(FrameFuzzTest, MalformedNumericPayloadAnswersErrAndStreamSurvives) {
  auto service = FreshService();
  TestServer server(service.get());
  ASSERT_TRUE(server.ok());

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll("admit\nview abc 0.5 0 0\nendview\n"));
  std::string line = client.RecvLines(1);
  EXPECT_TRUE(StartsWith(line, "err")) << line;
  // Same for a malformed graph payload.
  ASSERT_TRUE(client.SendAll("labelsof\ngraph 2 zero\nend\n"));
  line = client.RecvLines(1);
  EXPECT_TRUE(StartsWith(line, "err")) << line;
  // And for a node line past the declared count that carries a feature,
  // which the graph parser used to write past its feature table.
  ASSERT_TRUE(
      client.SendAll("labelsof\ngraph 1 0\nn 0 0\nn 1 0 0.5\nend\n"));
  EXPECT_EQ(client.RecvLines(1),
            "err line 3: node 1 is past the 1 nodes the graph declared\n");
  const std::string dir =
      ::testing::TempDir() + StrFormat("/gvex_open_%d", ::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(client.SendAll("open " + dir + "\n"));
  EXPECT_EQ(client.RecvLines(1), "err unknown request 'open'\n");
  EXPECT_FALSE(std::filesystem::exists(dir));
  // The connection still serves follow-up requests.
  auto oracle_service = FreshService();
  const std::string expected = ServeText(oracle_service.get(), "labels\n");
  ASSERT_TRUE(client.SendAll("labels\n"));
  EXPECT_EQ(client.RecvLines(2), expected);
}

// An oversized line over the socket: the server answers "err ..." and
// closes, the service is untouched, and the matching frame-error counter
// increments.
TEST_F(FrameFuzzTest, OversizedLineOverSocketAnswersErrAndCloses) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.session.frame.max_line_bytes = 128;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());
  const uint64_t epoch_before = service->epoch();
  const uint64_t errors_before = FrameErrors("oversized_line");

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll(std::string(4096, 'a')));
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));
  EXPECT_EQ(got, "err line exceeds 128 bytes\n");
  EXPECT_EQ(service->epoch(), epoch_before);
  EXPECT_EQ(FrameErrors("oversized_line"), errors_before + 1);
}

// A payload block that never terminates over the socket: "err ...", a
// close, and the runaway_frame counter increments.
TEST_F(FrameFuzzTest, RunawayBlockOverSocketIncrementsFrameErrorCounter) {
  auto service = FreshService();
  TcpServerOptions opts;
  opts.session.frame.max_frame_bytes = 256;
  TestServer server(service.get(), opts);
  ASSERT_TRUE(server.ok());
  const uint64_t errors_before = FrameErrors("runaway_frame");

  BlockingClient client(server.port());
  ASSERT_TRUE(client.ok());
  std::string stream = "admit\n";
  for (int i = 0; i < 64; ++i) stream += "view 0 0.5 0 0\n";
  ASSERT_TRUE(client.SendAll(stream));
  std::string got;
  ASSERT_TRUE(client.RecvUntilClosed(&got));
  EXPECT_EQ(got, "err request exceeds 256 bytes\n");
  EXPECT_EQ(FrameErrors("runaway_frame"), errors_before + 1);
}

}  // namespace
}  // namespace gvex
