#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "explain/view_io.h"
#include "serve/pattern_index.h"
#include "serve/synthetic_store.h"
#include "store/store_test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

// A snapshot of a built index over a synthetic store.
SnapshotData MakeSnapshot(const synthetic::SyntheticStore& store,
                          const PatternIndex& index, uint64_t epoch) {
  SnapshotData data;
  data.epoch = epoch;
  data.match = index.match_options();
  data.database_indexed = index.database_indexed();
  for (const ExplanationView& v : store.views) data.views[v.label] = v;
  data.postings = index.ExportPostings();
  return data;
}

TEST(SnapshotFileNameTest, EpochTaggedAndParsedBack) {
  EXPECT_EQ(SnapshotFileName(3), "snapshot-00000000000000000003.gvxs");
  auto parsed = ParseSnapshotFileName(SnapshotFileName(123456789));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), 123456789u);
  // Lexicographic order == epoch order (zero padding).
  EXPECT_LT(SnapshotFileName(9), SnapshotFileName(10));
  EXPECT_FALSE(ParseSnapshotFileName("wal.gvxw").ok());
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-12x4.gvxs").ok());
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-.gvxs").ok());
  // Only the CANONICAL zero-padded form is a store file: an unpadded
  // stray would be listed under an epoch whose canonical filename does
  // not exist, sending recovery after a phantom file.
  EXPECT_FALSE(ParseSnapshotFileName("snapshot-3.gvxs").ok());
  // 20 nines overflows uint64 — rejected, not silently wrapped.
  EXPECT_FALSE(
      ParseSnapshotFileName("snapshot-99999999999999999999.gvxs").ok());
}

TEST(SnapshotFileNameTest, DeltaNamesParallelSnapshotNames) {
  EXPECT_EQ(DeltaFileName(7), "delta-00000000000000000007.gvxd");
  auto parsed = ParseDeltaFileName(DeltaFileName(42));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), 42u);
  EXPECT_LT(DeltaFileName(9), DeltaFileName(10));
  // Kinds do not cross-parse.
  EXPECT_FALSE(ParseDeltaFileName(SnapshotFileName(7)).ok());
  EXPECT_FALSE(ParseSnapshotFileName(DeltaFileName(7)).ok());
  EXPECT_FALSE(ParseDeltaFileName("delta-7.gvxd").ok());
}

TEST(SnapshotTest, SerializeParseRoundTripsEverything) {
  auto store = synthetic::MakeSyntheticStore(5, /*num_labels=*/3);
  auto index = PatternIndex::Build(ShareViews([&] {
                                     std::map<int, ExplanationView> m;
                                     for (const auto& v : store.views) {
                                       m[v.label] = v;
                                     }
                                     return m;
                                   }()),
                                   &store.db);
  const SnapshotData data = MakeSnapshot(store, index, 42);

  auto parsed = ParseSnapshot(SerializeSnapshot(data));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SnapshotData& got = parsed.value();
  EXPECT_EQ(got.epoch, 42u);
  EXPECT_EQ(got.database_indexed, data.database_indexed);
  EXPECT_EQ(static_cast<int>(got.match.semantics),
            static_cast<int>(data.match.semantics));
  EXPECT_EQ(got.match.max_matches, data.match.max_matches);
  EXPECT_EQ(got.match.max_steps, data.match.max_steps);
  ASSERT_EQ(got.views.size(), data.views.size());
  for (const auto& [label, view] : data.views) {
    ASSERT_TRUE(got.views.count(label));
    EXPECT_EQ(SerializeView(got.views.at(label)), SerializeView(view));
  }
  ASSERT_EQ(got.postings.size(), data.postings.size());
  for (size_t i = 0; i < data.postings.size(); ++i) {
    EXPECT_EQ(got.postings[i].code, data.postings[i].code);
    EXPECT_EQ(got.postings[i].labels, data.postings[i].labels);
    EXPECT_EQ(got.postings[i].tier_position, data.postings[i].tier_position);
    // The pointers differ (decode allocates fresh words); the words match.
    for (const auto& [label, words] : got.postings[i].subgraph_bits) {
      EXPECT_NE(words, nullptr) << "label " << label;
    }
    EXPECT_TRUE(CoverageBitsEqual(got.postings[i].subgraph_bits,
                                  data.postings[i].subgraph_bits));
    EXPECT_EQ(got.postings[i].db_graphs, data.postings[i].db_graphs);
  }
}

// A CRC-valid file whose postings are logically inconsistent with its
// views must fail the load: the warm-start index (FromStored) serves both
// structures under build-time invariants — tier patterns always indexed,
// coverage bitsets sized to their view's subgraph list — so accepting
// such a file would crash or silently mis-answer queries later.
TEST(SnapshotTest, LogicallyInconsistentSnapshotsAreRejected) {
  auto store = synthetic::MakeSyntheticStore(9, /*num_labels=*/2);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  auto index = PatternIndex::Build(views, &store.db);
  const SnapshotData data = MakeSnapshot(store, index, 7);
  ASSERT_TRUE(ParseSnapshot(SerializeSnapshot(data)).ok());
  ASSERT_FALSE(data.postings.empty());

  {
    // A tier pattern whose posting is missing.
    SnapshotData broken = data;
    broken.postings.pop_back();
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
  }
  {
    // A coverage bitset with fewer words than the view's subgraph list.
    // The shared words are immutable; swap in a shortened copy.
    SnapshotData broken = data;
    ASSERT_FALSE(broken.postings[0].subgraph_bits.empty());
    broken.postings[0].subgraph_bits.begin()->second =
        std::make_shared<const std::vector<uint64_t>>();
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
  }
  {
    // Coverage bitsets out of label order, and one label listed twice in
    // place of another: the count still matches the views, the order does
    // not.
    SnapshotData broken = data;
    CoverageBits& bits = broken.postings[0].subgraph_bits;
    ASSERT_EQ(bits.size(), 2u);
    std::swap(bits[0], bits[1]);
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
    bits[0] = bits[1];
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
  }
  {
    // A tier position pointing at a label the snapshot does not hold.
    SnapshotData broken = data;
    broken.postings[0].tier_position[99] = 0;
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
  }
  {
    // A tier position pointing past its view's pattern list.
    SnapshotData broken = data;
    ASSERT_FALSE(broken.postings[0].tier_position.empty());
    broken.postings[0].tier_position.begin()->second += 1000;
    EXPECT_FALSE(ParseSnapshot(SerializeSnapshot(broken)).ok());
  }
}

TEST(SnapshotTest, SerializationIsDeterministic) {
  auto store = synthetic::MakeSyntheticStore(7, /*num_labels=*/2);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  auto index_a = PatternIndex::Build(views, &store.db);
  auto index_b = PatternIndex::Build(views, &store.db);
  // ExportPostings sorts by code, so identical state => identical bytes
  // even though the in-memory postings map is unordered.
  EXPECT_EQ(SerializeSnapshot(MakeSnapshot(store, index_a, 1)),
            SerializeSnapshot(MakeSnapshot(store, index_b, 1)));
}

// The tentpole parity requirement: load(save(S)) answers bit-identically
// to the in-memory index, across every query kind, for tier patterns,
// random probes, and non-indexed (fallback) patterns.
TEST(SnapshotTest, LoadedIndexAnswersBitIdentically) {
  synthetic::SyntheticStoreOptions opt;
  opt.num_labels = 3;
  opt.graphs_per_label = 5;
  opt.patterns_per_label = 10;
  auto store = synthetic::MakeSyntheticStore(13, opt);
  const ViewMapPtr views = ShareViews([&] {
    std::map<int, ExplanationView> m;
    for (const auto& v : store.views) m[v.label] = v;
    return m;
  }());
  auto built = PatternIndex::Build(views, &store.db);

  testing::ScratchDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string path = dir.File(SnapshotFileName(1));
  ASSERT_TRUE(SaveSnapshot(path, MakeSnapshot(store, built, 1)).ok());
  auto loaded_data = LoadSnapshot(path);
  ASSERT_TRUE(loaded_data.ok()) << loaded_data.status().ToString();
  auto loaded = PatternIndex::FromStored(
      views, &store.db, loaded_data.value().match,
      loaded_data.value().database_indexed, loaded_data.value().postings);

  EXPECT_EQ(loaded.num_codes(), built.num_codes());
  EXPECT_EQ(loaded.Labels(), built.Labels());

  // Probe set: every tier pattern + random patterns sampled from database
  // graphs (some indexed, some exercising the isomorphism fallback).
  std::vector<Pattern> probes;
  for (const auto& v : store.views) {
    probes.insert(probes.end(), v.patterns.begin(), v.patterns.end());
  }
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const Graph& g =
        store.db.graph(static_cast<int>(rng.NextUint(
            static_cast<uint64_t>(store.db.size()))));
    probes.push_back(synthetic::RandomPatternFrom(g, &rng, 1, 5));
  }

  for (const Pattern& p : probes) {
    EXPECT_EQ(loaded.LabelsOfPattern(p), built.LabelsOfPattern(p));
    EXPECT_EQ(loaded.DatabaseGraphsWithPattern(p),
              built.DatabaseGraphsWithPattern(p));
    for (const auto& v : store.views) {
      EXPECT_EQ(loaded.GraphsWithPattern(v.label, p),
                built.GraphsWithPattern(v.label, p));
      EXPECT_EQ(loaded.DatabaseGraphsWithPattern(p, v.label),
                built.DatabaseGraphsWithPattern(p, v.label));
    }
  }
  for (const auto& v : store.views) {
    const auto a = built.DiscriminativePatterns(v.label);
    const auto b = loaded.DiscriminativePatterns(v.label);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].canonical_code(), b[i].canonical_code());
    }
  }
}

TEST(SnapshotTest, SaveIsAtomicViaRename) {
  testing::ScratchDir dir;
  ASSERT_TRUE(dir.ok());
  SnapshotData data;
  data.epoch = 1;
  const std::string path = dir.File(SnapshotFileName(1));
  ASSERT_TRUE(SaveSnapshot(path, data).ok());
  // No .tmp residue after a successful save.
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp) std::fclose(tmp);
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().epoch, 1u);
  EXPECT_TRUE(loaded.value().views.empty());
}

TEST(SnapshotTest, ListAndPruneEpochs) {
  testing::ScratchDir dir;
  ASSERT_TRUE(dir.ok());
  SnapshotData data;
  for (uint64_t e : {3u, 1u, 7u}) {
    data.epoch = e;
    ASSERT_TRUE(SaveSnapshot(dir.File(SnapshotFileName(e)), data).ok());
  }
  auto epochs = ListSnapshotEpochs(dir.path());
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<uint64_t>{1, 3, 7}));
  auto pruned = PruneSnapshots(dir.path(), 7);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned.value(), 2);
  epochs = ListSnapshotEpochs(dir.path());
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<uint64_t>{7}));
}

TEST(SnapshotTest, CorruptSnapshotsNeverPartiallyLoad) {
  auto store = synthetic::MakeSyntheticStore(17, /*num_labels=*/2);
  std::map<int, ExplanationView> views;
  for (const auto& v : store.views) views[v.label] = v;
  auto index = PatternIndex::Build(views, &store.db);
  const std::string bytes =
      SerializeSnapshot(MakeSnapshot(store, index, 5));

  // Truncations at coarse strides (full sweep lives in codec_test).
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    EXPECT_FALSE(ParseSnapshot(bytes.substr(0, cut)).ok());
  }
  // Byte flips at coarse strides.
  for (size_t i = 0; i < bytes.size(); i += 5) {
    std::string tampered = bytes;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x40);
    EXPECT_FALSE(ParseSnapshot(tampered).ok()) << "flip at " << i;
  }
  EXPECT_TRUE(ParseSnapshot(bytes).ok());  // the original still loads
}

}  // namespace
}  // namespace gvex
