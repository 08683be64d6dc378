#include "serve/pattern_index.h"

#include <algorithm>
#include <atomic>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "pattern/matcher.h"
#include "store/codec.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gvex {

namespace {

const std::vector<Pattern> kEmptyPatterns;
const ViewMap kEmptyViews;

// Checks run by Build and Apply, process-wide: a scrape shows an admission
// costing O(new content), not O(store).
obs::Counter* ContainmentChecks() {
  static obs::Counter* const counter = obs::Metrics().GetCounter(
      "gvex_index_containment_checks_total",
      "Pattern containment checks run by PatternIndex Build and Apply");
  return counter;
}

// Where a replaced label's subgraphs were in its previous view, by
// content: old_pos[i] is a position of the previous list whose subgraph has
// the same EncodeGraph bytes as new subgraph i, or -1 for new content.
// Equal bytes are equal graphs, so a pattern's containment carries over.
struct SubgraphRemap {
  std::vector<int> old_pos;
  size_t unmapped = 0;    // positions holding new content
  bool identity = false;  // same length, every subgraph where it was
};

SubgraphRemap RemapSubgraphs(const ExplanationView& prev,
                             const ExplanationView& next) {
  // The hash only buckets the keys; lookup compares the bytes.
  std::vector<std::string> old_keys(prev.subgraphs.size());
  std::unordered_map<std::string_view, int> first_at;
  for (size_t j = 0; j < old_keys.size(); ++j) {
    EncodeGraph(prev.subgraphs[j].subgraph, &old_keys[j]);
    first_at.emplace(old_keys[j], static_cast<int>(j));
  }
  SubgraphRemap remap;
  remap.identity = next.subgraphs.size() == prev.subgraphs.size();
  remap.old_pos.reserve(next.subgraphs.size());
  std::string key;
  for (size_t i = 0; i < next.subgraphs.size(); ++i) {
    key.clear();
    EncodeGraph(next.subgraphs[i].subgraph, &key);
    // A subgraph still at its old position maps there even when the list
    // holds its bytes twice, so an identical list is always the identity.
    int j = -1;
    if (i < old_keys.size() && key == old_keys[i]) {
      j = static_cast<int>(i);
    } else if (auto it = first_at.find(key); it != first_at.end()) {
      j = it->second;
    }
    if (j != static_cast<int>(i)) remap.identity = false;
    if (j < 0) ++remap.unmapped;
    remap.old_pos.push_back(j);
  }
  return remap;
}

// Coverage of `p` over one view's subgraphs: bit i set iff subgraph i
// contains the pattern. With a `remap` onto the previous view and the
// pattern's `old_words` there, a subgraph the previous view held copies
// its old bit; the rest run through the candidate-filtered matcher, where
// most (code, subgraph) pairs die at filtering without a backtracking step.
// Adds the checks run to *checks.
CoverageWords Coverage(const ExplanationView& view, const Pattern& p,
                       const MatchOptions& match, const SubgraphRemap* remap,
                       const std::vector<uint64_t>* old_words,
                       uint64_t* checks) {
  std::vector<uint64_t> bits(bitops::WordsForBits(view.subgraphs.size()), 0);
  for (size_t i = 0; i < view.subgraphs.size(); ++i) {
    const int j = remap == nullptr ? -1 : remap->old_pos[i];
    bool contains;
    if (j >= 0) {
      contains = bitops::TestBit(old_words->data(), static_cast<size_t>(j));
    } else {
      contains = ContainsPattern(view.subgraphs[i].subgraph, p.graph(), match);
      ++*checks;
    }
    if (contains) bitops::SetBit(bits.data(), i);
  }
  return std::make_shared<const std::vector<uint64_t>>(std::move(bits));
}

}  // namespace

ViewMapPtr ShareViews(std::map<int, ExplanationView> views) {
  auto shared = std::make_shared<ViewMap>();
  for (auto& [label, view] : views) {
    shared->emplace(label,
                    std::make_shared<const ExplanationView>(std::move(view)));
  }
  return shared;
}

// Every fallback containment check funnels through here, with the
// matcher's fast-reject rate (MatcherStats::filtered_out) surfaced in
// stats().
bool PatternIndex::SubgraphContains(const Graph& subgraph,
                                    const Pattern& p) const {
  MatcherStats mstats;
  const bool contains = ContainsPattern(subgraph, p.graph(), match_, &mstats);
  if (mstats.filtered_out) {
    stats_->filtered_rejects.fetch_add(1, std::memory_order_relaxed);
  }
  return contains;
}

const std::vector<uint64_t>* PatternIndex::LabelBits(
    const PatternPostings& post, int label) {
  const CoverageWords* words = FindCoverage(post.subgraph_bits, label);
  return words == nullptr ? nullptr : words->get();
}

PatternIndex PatternIndex::Build(ViewMapPtr views, const GraphDatabase* db,
                                 const BuildOptions& options) {
  // A scratch build is an Apply onto an empty index: every code is new, so
  // every posting is computed in full (no label needs naming as changed).
  PatternIndex empty;
  empty.db_ = db;
  empty.match_ = options.match;
  empty.database_indexed_ = options.index_database && db != nullptr;
  if (options.num_threads <= 1) return Apply(empty, std::move(views), {});
  ThreadPool pool(options.num_threads);
  return Apply(empty, std::move(views), {}, &pool);
}

PatternIndex PatternIndex::Build(const std::map<int, ExplanationView>& views,
                                 const GraphDatabase* db,
                                 const BuildOptions& options) {
  return Build(ShareViews(views), db, options);
}

PatternIndex PatternIndex::Apply(const PatternIndex& prev,
                                 ViewMapPtr next_views,
                                 const std::set<int>& changed_labels,
                                 ThreadPool* pool) {
  PatternIndex index;
  index.views_ = std::move(next_views);
  index.db_ = prev.db_;
  index.match_ = prev.match_;
  index.database_indexed_ = prev.database_indexed_;
  if (index.views_ == nullptr) return index;

  // Unique codes in deterministic first-seen order (labels ascending, tier
  // order) with one representative pattern per code and its previous
  // posting, if any; tier_position / labels postings are rebuilt in the
  // same pass (no containment work). Codes of `prev` that no tier carries
  // any more never get a slot — they are dropped.
  struct Slot {
    const Pattern* rep;
    const PatternPostings* prev;  // null for a code new to this epoch
    PatternPostings post;
  };
  std::vector<Slot> slots;
  std::unordered_map<std::string, size_t> code_slot;
  size_t new_codes = 0;
  for (const auto& [label, view] : *index.views_) {
    for (size_t pos = 0; pos < view->patterns.size(); ++pos) {
      const Pattern& p = view->patterns[pos];
      auto [it, inserted] = code_slot.emplace(p.canonical_code(), slots.size());
      if (inserted) {
        slots.push_back(Slot{&p, prev.Find(p.canonical_code()), {}});
        if (slots.back().prev == nullptr) ++new_codes;
      }
      PatternPostings& post = slots[it->second].post;
      if (post.tier_position.emplace(label, static_cast<int>(pos)).second) {
        post.labels.push_back(label);  // labels ascend with the outer loop
      }
    }
  }

  // Each replaced label's new subgraphs, mapped by content onto the
  // previous view's. `unmapped` counts the subgraphs a known code has to
  // check: new content, and every subgraph of a label `prev` did not have.
  std::unordered_map<int, SubgraphRemap> remaps;
  size_t unmapped = 0;
  for (int label : changed_labels) {
    auto next_it = index.views_->find(label);
    if (next_it == index.views_->end()) continue;  // removed
    auto prev_it = prev.views().find(label);
    if (prev_it == prev.views().end()) {
      unmapped += next_it->second->subgraphs.size();
      continue;
    }
    const SubgraphRemap& remap =
        remaps
            .emplace(label,
                     RemapSubgraphs(*prev_it->second, *next_it->second))
            .first->second;
    unmapped += remap.unmapped;
  }

  // The containment work, sharded over the codes. A known code reuses the
  // previous epoch's words for every label the admission left alone and,
  // for a replaced label, every subgraph whose bytes the previous view
  // held; it checks only new content. A new code pays the whole cross-
  // product — one check per subgraph of every label and, when database
  // indexing is on, per database graph. Each shard writes only its own
  // slots, so the result is identical for every worker count.
  std::atomic<uint64_t> checks{0};
  auto run = [&](const Shard& shard) {
    uint64_t shard_checks = 0;
    for (int c = shard.begin; c < shard.end; ++c) {
      Slot& slot = slots[static_cast<size_t>(c)];
      const Pattern& p = *slot.rep;
      PatternPostings& post = slot.post;
      post.subgraph_bits.reserve(index.views_->size());
      for (const auto& [label, view] : *index.views_) {
        const CoverageWords* old =
            slot.prev == nullptr ? nullptr
                                 : FindCoverage(slot.prev->subgraph_bits, label);
        if (old != nullptr && *old == nullptr) old = nullptr;
        const SubgraphRemap* remap = nullptr;
        if (old != nullptr && changed_labels.count(label) != 0) {
          auto it = remaps.find(label);
          if (it == remaps.end()) {
            old = nullptr;  // the label is new to this epoch
          } else {
            remap = &it->second;
          }
        }
        if (old != nullptr && (remap == nullptr || remap->identity)) {
          post.subgraph_bits.emplace_back(label, *old);
          continue;
        }
        post.subgraph_bits.emplace_back(
            label, Coverage(*view, p, index.match_, remap,
                            old == nullptr ? nullptr : old->get(),
                            &shard_checks));
      }
      if (slot.prev != nullptr) {
        post.db_graphs = slot.prev->db_graphs;
      } else if (index.database_indexed_) {
        for (int i = 0; i < index.db_->size(); ++i) {
          if (ContainsPattern(index.db_->graph(i), p.graph(), index.match_)) {
            post.db_graphs.push_back(i);
          }
        }
        shard_checks += static_cast<uint64_t>(index.db_->size());
      }
    }
    checks.fetch_add(shard_checks, std::memory_order_relaxed);
  };
  // An admission with no new code and no new content only copies pointers
  // and bits: handing that to the pool costs more than doing it.
  const int num_codes = static_cast<int>(slots.size());
  if (pool == nullptr || pool->num_threads() <= 1 ||
      (new_codes == 0 && unmapped == 0)) {
    run(Shard{0, 0, num_codes});
  } else {
    pool->RunSharded(pool->num_threads() * 4, num_codes, run);
  }

  index.postings_.reserve(slots.size());
  for (auto& [code, slot] : code_slot) {
    index.postings_.emplace(code, std::move(slots[slot].post));
  }
  index.containment_checks_ = checks.load(std::memory_order_relaxed);
  ContainmentChecks()->Add(index.containment_checks_);
  return index;
}

std::vector<StoredPostings> PatternIndex::ExportPostings() const {
  std::vector<StoredPostings> out;
  out.reserve(postings_.size());
  for (const auto& [code, post] : postings_) {
    StoredPostings stored;
    stored.code = code;
    stored.labels = post.labels;
    stored.tier_position = post.tier_position;
    stored.subgraph_bits = post.subgraph_bits;  // pointer copies, no words
    stored.db_graphs = post.db_graphs;
    out.push_back(std::move(stored));
  }
  std::sort(out.begin(), out.end(),
            [](const StoredPostings& a, const StoredPostings& b) {
              return a.code < b.code;
            });
  return out;
}

PatternIndex PatternIndex::FromStored(
    ViewMapPtr views, const GraphDatabase* db, const MatchOptions& match,
    bool database_indexed, const std::vector<StoredPostings>& postings) {
  PatternIndex index;
  index.views_ = std::move(views);
  index.db_ = db;
  index.match_ = match;
  // Snapshots may predate the database the service now runs against; a
  // missing database disables the precomputed db_graphs path exactly like
  // a scratch build with db == nullptr.
  index.database_indexed_ = database_indexed && db != nullptr;
  index.postings_.reserve(postings.size());
  for (const StoredPostings& stored : postings) {
    PatternPostings post;
    post.labels = stored.labels;
    post.tier_position = stored.tier_position;
    post.subgraph_bits = stored.subgraph_bits;  // pointer copies, no words
    post.db_graphs = stored.db_graphs;
    index.postings_.emplace(stored.code, std::move(post));
  }
  return index;
}

const ViewMap& PatternIndex::views() const {
  return views_ == nullptr ? kEmptyViews : *views_;
}

std::vector<int> PatternIndex::Labels() const {
  std::vector<int> out;
  out.reserve(views().size());
  for (const auto& [label, view] : views()) out.push_back(label);
  return out;
}

const std::vector<Pattern>& PatternIndex::PatternsForLabel(int label) const {
  auto it = views().find(label);
  return it == views().end() ? kEmptyPatterns : it->second->patterns;
}

const PatternPostings* PatternIndex::Find(const std::string& code) const {
  auto it = postings_.find(code);
  return it == postings_.end() ? nullptr : &it->second;
}

std::vector<int> PatternIndex::GraphsWithPattern(int label,
                                                 const Pattern& p) const {
  std::vector<int> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  const std::vector<ExplanationSubgraph>& subgraphs = it->second->subgraphs;
  const PatternPostings* post = Find(p.canonical_code());
  if (post != nullptr) {
    if (const std::vector<uint64_t>* bits = LabelBits(*post, label)) {
      // The indexed path: one ctz per ANSWER, not one shift per subgraph.
      bitops::ForEachSetBit(*bits, [&](size_t i) {
        if (i < subgraphs.size()) out.push_back(subgraphs[i].graph_index);
      });
      return out;
    }
    // Known code but no bitset for this label: the build computes bits for
    // every label, so this is an inconsistent snapshot. Say so loudly and
    // count it — then still answer correctly via the scan below.
    stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
    GVEX_LOG(kError) << "pattern index posting for code "
                     << p.canonical_code() << " has no coverage bitset for"
                     << " label " << label
                     << " (inconsistent snapshot); scanning";
  } else {
    stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
  }
  // Non-exact pattern (or inconsistent posting): filtered containment scan,
  // bit-identical to the scan reference's answer.
  for (const auto& s : subgraphs) {
    if (SubgraphContains(s.subgraph, p)) {
      out.push_back(s.graph_index);
    }
  }
  return out;
}

std::vector<int> PatternIndex::GraphsWithAllPatterns(
    int label, const std::vector<Pattern>& patterns) const {
  std::vector<int> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  const std::vector<ExplanationSubgraph>& subgraphs = it->second->subgraphs;
  const size_t n = subgraphs.size();

  // Accumulator starts at "all subgraphs" (tail bits masked off) and each
  // indexed pattern narrows it with one word-level AND — a k-pattern query
  // costs k ANDs plus one output walk, not k separate bit walks.
  std::vector<uint64_t> acc(bitops::WordsForBits(n), ~uint64_t{0});
  if (!acc.empty() && (n & 63) != 0) {
    acc.back() = (uint64_t{1} << (n & 63)) - 1;
  }

  std::vector<const Pattern*> scan_patterns;
  for (const Pattern& p : patterns) {
    const PatternPostings* post = Find(p.canonical_code());
    if (post != nullptr) {
      if (const std::vector<uint64_t>* bits = LabelBits(*post, label)) {
        bitops::AndInPlace(&acc, *bits);
        continue;
      }
    }
    if (post != nullptr) {
      stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
      GVEX_LOG(kError) << "pattern index posting for code "
                       << p.canonical_code() << " has no coverage bitset"
                       << " for label " << label
                       << " (inconsistent snapshot); scanning";
    } else {
      stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
    }
    scan_patterns.push_back(&p);
  }
  if (bitops::AllZero(acc)) return out;

  // Unknown-code patterns only ever check subgraphs still alive in the
  // accumulator.
  bitops::ForEachSetBit(acc, [&](size_t i) {
    if (i >= n) return;
    for (const Pattern* p : scan_patterns) {
      if (!SubgraphContains(subgraphs[i].subgraph, *p)) return;
    }
    out.push_back(subgraphs[i].graph_index);
  });
  return out;
}

std::vector<int> PatternIndex::LabelsOfPattern(const Pattern& p) const {
  // Tier membership is exact canonical-code equality (Pattern::IsomorphicTo),
  // so an unknown code has no carriers — no fallback needed.
  const PatternPostings* post = Find(p.canonical_code());
  return post == nullptr ? std::vector<int>() : post->labels;
}

std::vector<int> PatternIndex::DatabaseGraphsWithPattern(const Pattern& p,
                                                         int label) const {
  std::vector<int> out;
  if (db_ == nullptr) return out;
  const PatternPostings* post =
      database_indexed_ ? Find(p.canonical_code()) : nullptr;
  if (post != nullptr) {
    if (label < 0) return post->db_graphs;
    for (int i : post->db_graphs) {
      const int l = db_->has_predictions() ? db_->predicted_label(i)
                                           : db_->true_label(i);
      if (l == label) out.push_back(i);
    }
    return out;
  }
  if (database_indexed_) {
    stats_->fallback_scans.fetch_add(1, std::memory_order_relaxed);
  }
  for (int i = 0; i < db_->size(); ++i) {
    if (label >= 0) {
      const int l = db_->has_predictions() ? db_->predicted_label(i)
                                           : db_->true_label(i);
      if (l != label) continue;
    }
    if (SubgraphContains(db_->graph(i), p)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<Pattern> PatternIndex::DiscriminativePatterns(int label) const {
  std::vector<Pattern> out;
  auto it = views().find(label);
  if (it == views().end()) return out;
  for (const Pattern& p : it->second->patterns) {
    // Tier patterns are indexed whenever the index was built from the same
    // view snapshot it queries — but a warm-started index serves whatever
    // postings its snapshot carried, and an admission race could hand it a
    // tier it never indexed. Missing postings (or missing per-label
    // bitsets) are counted, logged, and answered by a filtered scan; never
    // dereferenced blind.
    const PatternPostings* post = Find(p.canonical_code());
    if (post == nullptr) {
      stats_->inconsistent_postings.fetch_add(1, std::memory_order_relaxed);
      GVEX_LOG(kError) << "tier pattern of label " << label
                       << " has no posting (inconsistent snapshot);"
                       << " scanning";
    }
    bool found_elsewhere = false;
    for (const auto& [other_label, other_view] : views()) {
      if (other_label == label) continue;
      if (post != nullptr) {
        if (const std::vector<uint64_t>* bits = LabelBits(*post, other_label)) {
          if (!bitops::AllZero(*bits)) {
            found_elsewhere = true;
            break;
          }
          continue;
        }
        stats_->inconsistent_postings.fetch_add(1,
                                                std::memory_order_relaxed);
        GVEX_LOG(kError) << "pattern index posting for code "
                         << p.canonical_code()
                         << " has no coverage bitset for label "
                         << other_label
                         << " (inconsistent snapshot); scanning";
      }
      for (const ExplanationSubgraph& s : other_view->subgraphs) {
        if (SubgraphContains(s.subgraph, p)) {
          found_elsewhere = true;
          break;
        }
      }
      if (found_elsewhere) break;
    }
    if (!found_elsewhere) out.push_back(p);
  }
  return out;
}

}  // namespace gvex
