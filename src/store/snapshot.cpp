#include "store/snapshot.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "store/codec.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gvex {

namespace {

constexpr uint8_t kMetaTag = 1;
constexpr uint8_t kViewTag = 2;
constexpr uint8_t kPostingTag = 3;
constexpr uint8_t kFooterTag = 4;

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".gvxs";
constexpr char kDeltaPrefix[] = "delta-";
constexpr char kDeltaSuffix[] = ".gvxd";

// Width of the zero-padded epoch in canonical store file names (%020llu).
constexpr size_t kEpochDigits = 20;

// Parses "<prefix><20 digits><suffix>" into the digits' value. Only the
// CANONICAL form is accepted: an unpadded or overflowing name would list
// an epoch whose canonical filename does not exist, sending recovery (and
// pruning) after a phantom file.
Result<uint64_t> ParseEpochFileName(const std::string& name,
                                    const std::string& prefix,
                                    const std::string& suffix) {
  if (name.size() != prefix.size() + kEpochDigits + suffix.size() ||
      !StartsWith(name, prefix) ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return Status::NotFound("not a store file name: " + name);
  }
  const std::string digits = name.substr(prefix.size(), kEpochDigits);
  uint64_t epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::NotFound("not a store file name: " + name);
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (epoch > (UINT64_MAX - digit) / 10) {
      return Status::NotFound("epoch overflows in file name: " + name);
    }
    epoch = epoch * 10 + digit;
  }
  return epoch;
}

// Epochs of every "<prefix>NNN<suffix>" file in `dir`, ascending.
Result<std::vector<uint64_t>> ListEpochFiles(const std::string& dir,
                                             const std::string& prefix,
                                             const std::string& suffix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError(StrFormat("cannot list %s: %s", dir.c_str(),
                                     std::strerror(errno)));
  }
  std::vector<uint64_t> epochs;
  while (struct dirent* entry = ::readdir(d)) {
    auto epoch = ParseEpochFileName(entry->d_name, prefix, suffix);
    if (epoch.ok()) epochs.push_back(epoch.value());
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

void EncodeMatchOptions(const MatchOptions& m, std::string* dst) {
  PutVarint64(dst, static_cast<uint64_t>(m.semantics));
  PutZigzag64(dst, m.max_matches);
  PutZigzag64(dst, m.max_steps);
}

Status DecodeMatchOptions(ByteReader* in, MatchOptions* m) {
  uint64_t semantics = 0;
  GVEX_RETURN_NOT_OK(in->GetVarint64(&semantics));
  if (semantics > static_cast<uint64_t>(MatchSemantics::kNonInduced)) {
    return Status::InvalidArgument("unknown match semantics");
  }
  int64_t max_matches = 0, max_steps = 0;
  GVEX_RETURN_NOT_OK(in->GetZigzag64(&max_matches));
  GVEX_RETURN_NOT_OK(in->GetZigzag64(&max_steps));
  m->semantics = static_cast<MatchSemantics>(semantics);
  m->max_matches = static_cast<int>(max_matches);
  m->max_steps = max_steps;
  return Status::OK();
}

void EncodePosting(const StoredPostings& p, std::string* dst) {
  PutLengthPrefixed(dst, p.code);
  PutVarint64(dst, p.labels.size());
  for (int l : p.labels) PutZigzag64(dst, l);
  PutVarint64(dst, p.tier_position.size());
  for (const auto& [label, pos] : p.tier_position) {
    PutZigzag64(dst, label);
    PutZigzag64(dst, pos);
  }
  PutVarint64(dst, p.subgraph_bits.size());
  for (const auto& [label, bits] : p.subgraph_bits) {
    PutZigzag64(dst, label);
    PutVarint64(dst, bits ? bits->size() : 0);
    if (bits) {
      for (uint64_t w : *bits) PutFixed64(dst, w);
    }
  }
  PutVarint64(dst, p.db_graphs.size());
  for (int g : p.db_graphs) PutZigzag64(dst, g);
}

Status DecodePosting(ByteReader* in, StoredPostings* p) {
  StoredPostings out;
  GVEX_RETURN_NOT_OK(in->GetLengthPrefixed(&out.code));
  uint64_t n = 0;
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &n));
  out.labels.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t l = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&l));
    out.labels.push_back(static_cast<int>(l));
  }
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t label = 0, pos = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&label));
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&pos));
    out.tier_position.emplace(static_cast<int>(label),
                              static_cast<int>(pos));
  }
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t label = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&label));
    uint64_t words = 0;
    GVEX_RETURN_NOT_OK(in->GetCount(in->remaining() / 8, &words));
    std::vector<uint64_t> bits(static_cast<size_t>(words));
    for (uint64_t w = 0; w < words; ++w) {
      GVEX_RETURN_NOT_OK(in->GetFixed64(&bits[static_cast<size_t>(w)]));
    }
    if (!out.subgraph_bits.empty() &&
        label <= out.subgraph_bits.back().first) {
      return Status::InvalidArgument(
          "posting coverage labels are not strictly ascending");
    }
    out.subgraph_bits.emplace_back(
        static_cast<int>(label),
        std::make_shared<const std::vector<uint64_t>>(std::move(bits)));
  }
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &n));
  out.db_graphs.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t g = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&g));
    out.db_graphs.push_back(static_cast<int>(g));
  }
  *p = std::move(out);
  return Status::OK();
}

}  // namespace

const CoverageWords* FindCoverage(const CoverageBits& bits, int label) {
  auto it = std::lower_bound(
      bits.begin(), bits.end(), label,
      [](const auto& entry, int l) { return entry.first < l; });
  return it != bits.end() && it->first == label ? &it->second : nullptr;
}

bool CoverageBitsEqual(const CoverageBits& a, const CoverageBits& b) {
  static const std::vector<uint64_t> kNoWords;
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             (x.second ? *x.second : kNoWords) ==
                                 (y.second ? *y.second : kNoWords);
                    });
}

bool operator==(const StoredPostings& a, const StoredPostings& b) {
  return a.code == b.code && a.labels == b.labels &&
         a.tier_position == b.tier_position &&
         CoverageBitsEqual(a.subgraph_bits, b.subgraph_bits) &&
         a.db_graphs == b.db_graphs;
}

std::string SnapshotFileName(uint64_t epoch) {
  return StrFormat("%s%020llu%s", kSnapshotPrefix,
                   static_cast<unsigned long long>(epoch), kSnapshotSuffix);
}

Result<uint64_t> ParseSnapshotFileName(const std::string& name) {
  return ParseEpochFileName(name, kSnapshotPrefix, kSnapshotSuffix);
}

std::string DeltaFileName(uint64_t epoch) {
  return StrFormat("%s%020llu%s", kDeltaPrefix,
                   static_cast<unsigned long long>(epoch), kDeltaSuffix);
}

Result<uint64_t> ParseDeltaFileName(const std::string& name) {
  return ParseEpochFileName(name, kDeltaPrefix, kDeltaSuffix);
}

std::string SerializeSnapshot(const SnapshotData& data) {
  std::string out;
  PutStoreHeader(&out, StoreFileKind::kSnapshot);

  std::string meta(1, static_cast<char>(kMetaTag));
  PutVarint64(&meta, data.epoch);
  EncodeMatchOptions(data.match, &meta);
  PutVarint64(&meta, data.database_indexed ? 1 : 0);
  PutVarint64(&meta, data.views.size());
  PutVarint64(&meta, data.postings.size());
  PutFramedRecord(&out, meta);

  for (const auto& [label, view] : data.views) {
    (void)label;  // the view record carries its own label
    std::string payload(1, static_cast<char>(kViewTag));
    EncodeView(view, &payload);
    PutFramedRecord(&out, payload);
  }
  for (const StoredPostings& p : data.postings) {
    std::string payload(1, static_cast<char>(kPostingTag));
    EncodePosting(p, &payload);
    PutFramedRecord(&out, payload);
  }

  std::string footer(1, static_cast<char>(kFooterTag));
  PutVarint64(&footer, data.views.size());
  PutVarint64(&footer, data.postings.size());
  PutFramedRecord(&out, footer);
  return out;
}

Result<SnapshotData> ParseSnapshot(const std::string& bytes) {
  ByteReader in(bytes);
  GVEX_RETURN_NOT_OK(in.GetStoreHeader(StoreFileKind::kSnapshot));

  std::string payload;
  GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kMetaTag) {
    return Status::InvalidArgument("snapshot missing meta record");
  }
  SnapshotData data;
  uint64_t db_indexed = 0, num_views = 0, num_postings = 0;
  {
    ByteReader meta(payload.data() + 1, payload.size() - 1);
    GVEX_RETURN_NOT_OK(meta.GetVarint64(&data.epoch));
    GVEX_RETURN_NOT_OK(DecodeMatchOptions(&meta, &data.match));
    GVEX_RETURN_NOT_OK(meta.GetVarint64(&db_indexed));
    if (db_indexed > 1) {
      return Status::InvalidArgument("bad database_indexed flag");
    }
    GVEX_RETURN_NOT_OK(meta.GetCount(bytes.size(), &num_views));
    GVEX_RETURN_NOT_OK(meta.GetCount(bytes.size(), &num_postings));
    if (!meta.done()) {
      return Status::InvalidArgument("trailing bytes in snapshot meta");
    }
  }
  data.database_indexed = db_indexed != 0;

  for (uint64_t i = 0; i < num_views; ++i) {
    GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
    if (payload.empty() || static_cast<uint8_t>(payload[0]) != kViewTag) {
      return Status::InvalidArgument("expected a snapshot view record");
    }
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    ExplanationView view;
    GVEX_RETURN_NOT_OK(DecodeView(&rec, &view));
    if (!rec.done()) {
      return Status::InvalidArgument("trailing bytes in view record");
    }
    const int label = view.label;
    if (!data.views.emplace(label, std::move(view)).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate view for label %d", label));
    }
  }
  for (uint64_t i = 0; i < num_postings; ++i) {
    GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
    if (payload.empty() || static_cast<uint8_t>(payload[0]) != kPostingTag) {
      return Status::InvalidArgument("expected a snapshot posting record");
    }
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    StoredPostings posting;
    GVEX_RETURN_NOT_OK(DecodePosting(&rec, &posting));
    if (!rec.done()) {
      return Status::InvalidArgument("trailing bytes in posting record");
    }
    data.postings.push_back(std::move(posting));
  }

  GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kFooterTag) {
    return Status::InvalidArgument("snapshot missing footer record");
  }
  {
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    uint64_t views_again = 0, postings_again = 0;
    GVEX_RETURN_NOT_OK(rec.GetVarint64(&views_again));
    GVEX_RETURN_NOT_OK(rec.GetVarint64(&postings_again));
    if (views_again != num_views || postings_again != num_postings ||
        !rec.done()) {
      return Status::InvalidArgument("snapshot footer mismatch");
    }
  }
  if (!in.done()) {
    return Status::InvalidArgument("trailing bytes after snapshot footer");
  }

  // Cross-validate postings against views before returning: the warm-start
  // index (PatternIndex::FromStored) serves these structures under
  // build-time invariants — every tier pattern has a posting, coverage
  // bitsets are sized to their view's subgraph list — so a CRC-valid but
  // logically inconsistent file must fail the load here, not crash (or
  // silently mis-answer) a query later.
  std::map<std::string, const StoredPostings*> by_code;
  for (const StoredPostings& p : data.postings) {
    if (!by_code.emplace(p.code, &p).second) {
      return Status::InvalidArgument("duplicate posting code");
    }
  }
  for (const auto& [label, view] : data.views) {
    for (size_t pos = 0; pos < view.patterns.size(); ++pos) {
      if (by_code.find(view.patterns[pos].canonical_code()) ==
          by_code.end()) {
        return Status::InvalidArgument(StrFormat(
            "tier pattern %zu of label %d has no posting", pos, label));
      }
    }
  }
  for (const StoredPostings& p : data.postings) {
    std::vector<int> tier_labels;
    tier_labels.reserve(p.tier_position.size());
    for (const auto& [label, pos] : p.tier_position) {
      auto view = data.views.find(label);
      if (view == data.views.end() || pos < 0 ||
          static_cast<size_t>(pos) >= view->second.patterns.size() ||
          view->second.patterns[static_cast<size_t>(pos)].canonical_code() !=
              p.code) {
        return Status::InvalidArgument(StrFormat(
            "posting tier position (%d, %d) does not match its view", label,
            pos));
      }
      tier_labels.push_back(label);
    }
    if (p.labels != tier_labels) {
      return Status::InvalidArgument(
          "posting labels disagree with its tier positions");
    }
    if (p.subgraph_bits.size() != data.views.size()) {
      return Status::InvalidArgument(
          "posting coverage bitsets do not cover every view label");
    }
    for (const auto& [label, bits] : p.subgraph_bits) {
      auto view = data.views.find(label);
      if (view == data.views.end() ||
          bits->size() != (view->second.subgraphs.size() + 63) / 64) {
        return Status::InvalidArgument(StrFormat(
            "posting coverage bitset for label %d does not match its view",
            label));
      }
    }
  }
  return data;
}

Status SaveSnapshot(const std::string& path, const SnapshotData& data) {
  return AtomicWriteFile(path, SerializeSnapshot(data));
}

std::string SerializeDelta(const DeltaData& data) {
  std::string out;
  PutStoreHeader(&out, StoreFileKind::kDelta);

  std::string meta(1, static_cast<char>(kMetaTag));
  PutVarint64(&meta, data.epoch);
  PutVarint64(&meta, data.parent_epoch);
  PutVarint64(&meta, data.views.size());
  PutFramedRecord(&out, meta);

  for (const auto& [label, view] : data.views) {
    (void)label;  // the view record carries its own label
    std::string payload(1, static_cast<char>(kViewTag));
    EncodeView(view, &payload);
    PutFramedRecord(&out, payload);
  }

  std::string footer(1, static_cast<char>(kFooterTag));
  PutVarint64(&footer, data.views.size());
  PutFramedRecord(&out, footer);
  return out;
}

Result<DeltaData> ParseDelta(const std::string& bytes) {
  ByteReader in(bytes);
  GVEX_RETURN_NOT_OK(in.GetStoreHeader(StoreFileKind::kDelta));

  std::string payload;
  GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kMetaTag) {
    return Status::InvalidArgument("delta missing meta record");
  }
  DeltaData data;
  uint64_t num_views = 0;
  {
    ByteReader meta(payload.data() + 1, payload.size() - 1);
    GVEX_RETURN_NOT_OK(meta.GetVarint64(&data.epoch));
    GVEX_RETURN_NOT_OK(meta.GetVarint64(&data.parent_epoch));
    GVEX_RETURN_NOT_OK(meta.GetCount(bytes.size(), &num_views));
    if (!meta.done()) {
      return Status::InvalidArgument("trailing bytes in delta meta");
    }
  }
  // A delta that does not advance past its parent persists nothing its
  // parent doesn't — structurally invalid, reject before use.
  if (data.epoch <= data.parent_epoch) {
    return Status::InvalidArgument("delta epoch must exceed its parent");
  }

  for (uint64_t i = 0; i < num_views; ++i) {
    GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
    if (payload.empty() || static_cast<uint8_t>(payload[0]) != kViewTag) {
      return Status::InvalidArgument("expected a delta view record");
    }
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    ExplanationView view;
    GVEX_RETURN_NOT_OK(DecodeView(&rec, &view));
    if (!rec.done()) {
      return Status::InvalidArgument("trailing bytes in view record");
    }
    const int label = view.label;
    if (!data.views.emplace(label, std::move(view)).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate delta view for label %d", label));
    }
  }

  GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kFooterTag) {
    return Status::InvalidArgument("delta missing footer record");
  }
  {
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    uint64_t views_again = 0;
    GVEX_RETURN_NOT_OK(rec.GetVarint64(&views_again));
    if (views_again != num_views || !rec.done()) {
      return Status::InvalidArgument("delta footer mismatch");
    }
  }
  if (!in.done()) {
    return Status::InvalidArgument("trailing bytes after delta footer");
  }
  return data;
}

Status SaveDelta(const std::string& path, const DeltaData& data) {
  return AtomicWriteFile(path, SerializeDelta(data));
}

// A missing image is an I/O failure to the loaders (recovery only asks
// for files it listed), unlike the WAL, whose absence is a state.
Result<DeltaData> LoadDelta(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return Status::IOError(bytes.status().message());
  return ParseDelta(bytes.value());
}

Result<SnapshotData> LoadSnapshot(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return Status::IOError(bytes.status().message());
  return ParseSnapshot(bytes.value());
}

Result<std::vector<uint64_t>> ListSnapshotEpochs(const std::string& dir) {
  return ListEpochFiles(dir, kSnapshotPrefix, kSnapshotSuffix);
}

Result<std::vector<uint64_t>> ListDeltaEpochs(const std::string& dir) {
  return ListEpochFiles(dir, kDeltaPrefix, kDeltaSuffix);
}

Result<int> PruneDeltas(const std::string& dir, uint64_t keep_epoch) {
  auto epochs = ListDeltaEpochs(dir);
  if (!epochs.ok()) return epochs.status();
  int removed = 0;
  for (uint64_t epoch : epochs.value()) {
    if (epoch > keep_epoch) continue;
    const std::string path = dir + "/" + DeltaFileName(epoch);
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  return removed;
}

Result<int> PruneSnapshots(const std::string& dir, uint64_t keep_epoch) {
  auto epochs = ListSnapshotEpochs(dir);
  if (!epochs.ok()) return epochs.status();
  int removed = 0;
  for (uint64_t epoch : epochs.value()) {
    if (epoch >= keep_epoch) continue;
    const std::string path = dir + "/" + SnapshotFileName(epoch);
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  return removed;
}

}  // namespace gvex
