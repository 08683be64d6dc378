#include "store/codec.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "explain/view_io.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gvex {

namespace {

// Varints longer than this encode values past 2^64 — reject.
constexpr int kMaxVarintBytes = 10;

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(
      StrFormat("truncated input while reading %s", what));
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const uint32_t* table = Crc32Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  dst->append(buf, 8);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80u) {
    dst->push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutZigzag64(std::string* dst, int64_t v) { PutVarint64(dst, Zigzag(v)); }

void PutDoubleBits(std::string* dst, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(dst, bits);
}

void PutFloatBits(std::string* dst, float v) {
  uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(dst, bits);
}

void PutLengthPrefixed(std::string* dst, const std::string& s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

void PutStoreHeader(std::string* dst, StoreFileKind kind) {
  PutFixed32(dst, kStoreMagic);
  PutFixed32(dst, kStoreFormatVersion);
  PutFixed32(dst, static_cast<uint32_t>(kind));
}

void PutFramedRecord(std::string* dst, const std::string& payload) {
  PutVarint64(dst, payload.size());
  dst->append(payload);
  PutFixed32(dst, Crc32(payload));
}

Status ByteReader::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return Truncated("fixed32");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetFixed64(uint64_t* v) {
  if (remaining() < 8) return Truncated("fixed64");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetVarint64(uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (p_ + i >= end_) return Truncated("varint");
    const uint8_t byte = p_[i];
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (i == kMaxVarintBytes - 1 && byte > 1) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    out |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    shift += 7;
    if ((byte & 0x80u) == 0) {
      p_ += i + 1;
      *v = out;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("varint longer than 10 bytes");
}

Status ByteReader::GetZigzag64(int64_t* v) {
  uint64_t raw = 0;
  GVEX_RETURN_NOT_OK(GetVarint64(&raw));
  *v = Unzigzag(raw);
  return Status::OK();
}

Status ByteReader::GetDoubleBits(double* v) {
  uint64_t bits = 0;
  GVEX_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::GetFloatBits(float* v) {
  uint32_t bits = 0;
  GVEX_RETURN_NOT_OK(GetFixed32(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::GetLengthPrefixed(std::string* s) {
  uint64_t len = 0;
  GVEX_RETURN_NOT_OK(GetVarint64(&len));
  if (len > remaining()) return Truncated("length-prefixed bytes");
  s->assign(reinterpret_cast<const char*>(p_), static_cast<size_t>(len));
  p_ += len;
  return Status::OK();
}

Status ByteReader::GetCount(uint64_t limit, uint64_t* v) {
  uint64_t raw = 0;
  GVEX_RETURN_NOT_OK(GetVarint64(&raw));
  if (raw > limit) {
    return Status::InvalidArgument(
        StrFormat("count %llu exceeds limit %llu",
                  static_cast<unsigned long long>(raw),
                  static_cast<unsigned long long>(limit)));
  }
  *v = raw;
  return Status::OK();
}

Status ByteReader::GetStoreHeader(StoreFileKind expected) {
  uint32_t magic = 0, version = 0, kind = 0;
  if (!GetFixed32(&magic).ok() || !GetFixed32(&version).ok() ||
      !GetFixed32(&kind).ok()) {
    return Status::InvalidArgument("file too short for a store header");
  }
  if (magic != kStoreMagic) {
    return Status::InvalidArgument("bad magic: not a gvex store file");
  }
  if (version != kStoreFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported store format version %u (expected %u)",
                  version, kStoreFormatVersion));
  }
  if (kind != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument(
        StrFormat("store file kind %u is not the expected kind %u", kind,
                  static_cast<uint32_t>(expected)));
  }
  return Status::OK();
}

Status ByteReader::GetFramedRecord(std::string* payload) {
  if (done()) return Status::NotFound("end of input");
  uint64_t len = 0;
  GVEX_RETURN_NOT_OK(GetVarint64(&len));
  if (len > remaining() || remaining() - len < 4) {
    return Truncated("framed record");
  }
  std::string body(reinterpret_cast<const char*>(p_),
                   static_cast<size_t>(len));
  p_ += len;
  uint32_t want = 0;
  GVEX_RETURN_NOT_OK(GetFixed32(&want));
  if (Crc32(body) != want) {
    return Status::InvalidArgument("record checksum mismatch");
  }
  *payload = std::move(body);
  return Status::OK();
}

// --- Graph ---------------------------------------------------------------
// flags varint (bit0 directed, bit1 has_features), num_nodes, node types
// (zigzag), [feature_dim + num_nodes*dim float bits], num_edges, edges as
// (u, v, type) with endpoints varint and type zigzag. Edge order is the
// insertion order Graph::edges() preserves, so re-encoding a decoded graph
// is byte-identical.

void EncodeGraph(const Graph& g, std::string* dst) {
  uint64_t flags = 0;
  if (g.directed()) flags |= 1u;
  if (g.has_features()) flags |= 2u;
  PutVarint64(dst, flags);
  PutVarint64(dst, static_cast<uint64_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    PutZigzag64(dst, g.node_type(v));
  }
  if (g.has_features()) {
    PutVarint64(dst, static_cast<uint64_t>(g.feature_dim()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (int j = 0; j < g.feature_dim(); ++j) {
        PutFloatBits(dst, g.features().at(v, j));
      }
    }
  }
  PutVarint64(dst, static_cast<uint64_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    PutVarint64(dst, static_cast<uint64_t>(e.u));
    PutVarint64(dst, static_cast<uint64_t>(e.v));
    PutZigzag64(dst, e.edge_type);
  }
}

Status DecodeGraph(ByteReader* in, Graph* g) {
  uint64_t flags = 0, num_nodes = 0;
  GVEX_RETURN_NOT_OK(in->GetVarint64(&flags));
  if (flags > 3) {
    return Status::InvalidArgument("unknown graph flag bits");
  }
  // A node costs at least one encoded byte, so `remaining` bounds every
  // count — hostile lengths are rejected before any allocation. Node ids
  // are ints, so the count must also fit one.
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &num_nodes));
  if (num_nodes > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("graph node count exceeds INT_MAX");
  }
  Graph out((flags & 1u) != 0);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    int64_t type = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&type));
    out.AddNode(static_cast<int>(type));
  }
  if ((flags & 2u) != 0) {
    uint64_t dim = 0;
    GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &dim));
    // Division-based bound: the multiplied form num_nodes * dim * 4 can
    // wrap in uint64 for a crafted multi-GB file, sliding hostile counts
    // past the guard and into the int casts below.
    if (dim > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
        (dim != 0 && num_nodes > in->remaining() / (dim * 4))) {
      return Truncated("graph feature matrix");
    }
    Matrix x(static_cast<int>(num_nodes), static_cast<int>(dim));
    for (uint64_t v = 0; v < num_nodes; ++v) {
      for (uint64_t j = 0; j < dim; ++j) {
        GVEX_RETURN_NOT_OK(in->GetFloatBits(
            &x.at(static_cast<int>(v), static_cast<int>(j))));
      }
    }
    GVEX_RETURN_NOT_OK(out.SetFeatures(std::move(x)));
  }
  uint64_t num_edges = 0;
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &num_edges));
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint64_t u = 0, v = 0;
    int64_t type = 0;
    GVEX_RETURN_NOT_OK(in->GetVarint64(&u));
    GVEX_RETURN_NOT_OK(in->GetVarint64(&v));
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&type));
    if (u >= num_nodes || v >= num_nodes) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    GVEX_RETURN_NOT_OK(out.AddEdge(static_cast<NodeId>(u),
                                   static_cast<NodeId>(v),
                                   static_cast<int>(type)));
  }
  *g = std::move(out);
  return Status::OK();
}

// --- Pattern -------------------------------------------------------------
// Just the structure graph; Pattern::Create re-derives the canonical code
// deterministically and re-enforces the connectivity invariant.

void EncodePattern(const Pattern& p, std::string* dst) {
  EncodeGraph(p.graph(), dst);
}

Status DecodePattern(ByteReader* in, Pattern* p) {
  Graph g;
  GVEX_RETURN_NOT_OK(DecodeGraph(in, &g));
  auto created = Pattern::Create(std::move(g));
  if (!created.ok()) return created.status();
  *p = std::move(created).value();
  return Status::OK();
}

// --- ExplanationView -----------------------------------------------------
// label, explainability bits, patterns, subgraphs; each subgraph carries
// graph_index, verification flags, its explainability term, the selected
// node ids, and the induced subgraph.

void EncodeView(const ExplanationView& v, std::string* dst) {
  PutZigzag64(dst, v.label);
  PutDoubleBits(dst, v.explainability);
  PutVarint64(dst, v.patterns.size());
  for (const Pattern& p : v.patterns) EncodePattern(p, dst);
  PutVarint64(dst, v.subgraphs.size());
  for (const ExplanationSubgraph& s : v.subgraphs) {
    PutZigzag64(dst, s.graph_index);
    uint64_t flags = 0;
    if (s.consistent) flags |= 1u;
    if (s.counterfactual) flags |= 2u;
    PutVarint64(dst, flags);
    PutDoubleBits(dst, s.explainability);
    PutVarint64(dst, s.nodes.size());
    for (NodeId n : s.nodes) PutZigzag64(dst, n);
    EncodeGraph(s.subgraph, dst);
  }
}

Status DecodeView(ByteReader* in, ExplanationView* v) {
  ExplanationView out;
  int64_t label = 0;
  GVEX_RETURN_NOT_OK(in->GetZigzag64(&label));
  out.label = static_cast<int>(label);
  GVEX_RETURN_NOT_OK(in->GetDoubleBits(&out.explainability));
  uint64_t num_patterns = 0;
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &num_patterns));
  out.patterns.reserve(static_cast<size_t>(num_patterns));
  for (uint64_t i = 0; i < num_patterns; ++i) {
    Pattern p;
    GVEX_RETURN_NOT_OK(DecodePattern(in, &p));
    out.patterns.push_back(std::move(p));
  }
  uint64_t num_subgraphs = 0;
  GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &num_subgraphs));
  out.subgraphs.reserve(static_cast<size_t>(num_subgraphs));
  for (uint64_t i = 0; i < num_subgraphs; ++i) {
    ExplanationSubgraph s;
    int64_t graph_index = 0;
    GVEX_RETURN_NOT_OK(in->GetZigzag64(&graph_index));
    s.graph_index = static_cast<int>(graph_index);
    uint64_t flags = 0;
    GVEX_RETURN_NOT_OK(in->GetVarint64(&flags));
    if (flags > 3) {
      return Status::InvalidArgument("unknown subgraph flag bits");
    }
    s.consistent = (flags & 1u) != 0;
    s.counterfactual = (flags & 2u) != 0;
    GVEX_RETURN_NOT_OK(in->GetDoubleBits(&s.explainability));
    uint64_t num_ids = 0;
    GVEX_RETURN_NOT_OK(in->GetCount(in->remaining(), &num_ids));
    s.nodes.reserve(static_cast<size_t>(num_ids));
    for (uint64_t j = 0; j < num_ids; ++j) {
      int64_t id = 0;
      GVEX_RETURN_NOT_OK(in->GetZigzag64(&id));
      s.nodes.push_back(static_cast<NodeId>(id));
    }
    GVEX_RETURN_NOT_OK(DecodeGraph(in, &s.subgraph));
    out.subgraphs.push_back(std::move(s));
  }
  *v = std::move(out);
  return Status::OK();
}

// --- Binary view files (the entry points declared in explain/view_io.h) ---
// Layout: header(kViews), one framed record per view, and a framed footer
// holding the view count — a file truncated at a record boundary still
// fails to load instead of silently dropping the tail.

namespace {

constexpr uint8_t kViewRecordTag = 1;
constexpr uint8_t kViewFooterTag = 2;

}  // namespace

std::string SerializeViewsBinary(const std::vector<ExplanationView>& views) {
  std::string out;
  PutStoreHeader(&out, StoreFileKind::kViews);
  for (const ExplanationView& v : views) {
    std::string payload(1, static_cast<char>(kViewRecordTag));
    EncodeView(v, &payload);
    PutFramedRecord(&out, payload);
  }
  std::string footer(1, static_cast<char>(kViewFooterTag));
  PutVarint64(&footer, views.size());
  PutFramedRecord(&out, footer);
  return out;
}

Result<std::vector<ExplanationView>> ParseViewsBinary(
    const std::string& bytes) {
  ByteReader in(bytes);
  GVEX_RETURN_NOT_OK(in.GetStoreHeader(StoreFileKind::kViews));
  std::vector<ExplanationView> views;
  bool saw_footer = false;
  while (!in.done()) {
    std::string payload;
    GVEX_RETURN_NOT_OK(in.GetFramedRecord(&payload));
    if (payload.empty()) {
      return Status::InvalidArgument("empty record in view file");
    }
    ByteReader rec(payload.data() + 1, payload.size() - 1);
    const uint8_t tag = static_cast<uint8_t>(payload[0]);
    if (tag == kViewRecordTag) {
      if (saw_footer) {
        return Status::InvalidArgument("view record after footer");
      }
      ExplanationView v;
      GVEX_RETURN_NOT_OK(DecodeView(&rec, &v));
      if (!rec.done()) {
        return Status::InvalidArgument("trailing bytes in view record");
      }
      views.push_back(std::move(v));
    } else if (tag == kViewFooterTag) {
      uint64_t count = 0;
      GVEX_RETURN_NOT_OK(rec.GetVarint64(&count));
      if (count != views.size()) {
        return Status::InvalidArgument("view file footer count mismatch");
      }
      saw_footer = true;
    } else {
      return Status::InvalidArgument("unknown record tag in view file");
    }
  }
  if (!saw_footer) {
    return Status::InvalidArgument("view file missing footer (truncated?)");
  }
  return views;
}

Status SaveViewsBinary(const std::string& path,
                       const std::vector<ExplanationView>& views) {
  return AtomicWriteFile(path, SerializeViewsBinary(views));
}

Result<std::vector<ExplanationView>> LoadViewsBinary(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return Status::IOError(bytes.status().message());
  return ParseViewsBinary(bytes.value());
}

Result<std::vector<ExplanationView>> LoadViewsAnyFormat(
    const std::string& path) {
  auto head = ReadFileRange(path, 0, 4);
  if (!head.ok()) return Status::IOError(head.status().message());
  ByteReader in(head.value());
  uint32_t magic = 0;
  if (in.GetFixed32(&magic).ok() && magic == kStoreMagic) {
    return LoadViewsBinary(path);
  }
  return LoadViews(path);
}

}  // namespace gvex
