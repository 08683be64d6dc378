// Test- and bench-only oracle for the view queries of §1 / Table 1: every
// query answered by a linear scan, one blind subgraph-isomorphism check
// (BlindContainsPattern from tests/pattern/blind_matcher.h, induced
// semantics) per (pattern, graph) pair, and tier membership by
// Pattern::IsomorphicTo. It has no index and no cache.
//
// ViewService answers the same queries through the inverted PatternIndex;
// the oracle parity suite (tests/serve/pattern_index_test.cpp) pins those
// answers bit-identical to this scan, and bench_serving_throughput times
// the index against it. The query signatures match ViewService's, so both
// fit the same templated workload.
//
// Registering a view for a label that already has one replaces it.

#ifndef GVEX_TESTS_SERVE_SCAN_REFERENCE_H_
#define GVEX_TESTS_SERVE_SCAN_REFERENCE_H_

#include <map>
#include <utility>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "pattern/blind_matcher.h"
#include "pattern/pattern.h"

namespace gvex {
namespace testing {

class ScanReference {
 public:
  /// `db` may be null (database queries then answer empty) and must
  /// outlive the reference; views are copied in.
  explicit ScanReference(const GraphDatabase* db) : db_(db) {
    match_options_.semantics = MatchSemantics::kInduced;
  }

  void AddView(ExplanationView view) { views_[view.label] = std::move(view); }

  std::vector<int> Labels() const {
    std::vector<int> out;
    out.reserve(views_.size());
    for (const auto& [label, view] : views_) out.push_back(label);
    return out;
  }

  std::vector<Pattern> PatternsForLabel(int label) const {
    auto it = views_.find(label);
    return it == views_.end() ? std::vector<Pattern>{} : it->second.patterns;
  }

  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const {
    std::vector<int> out;
    auto it = views_.find(label);
    if (it == views_.end()) return out;
    for (const auto& s : it->second.subgraphs) {
      if (BlindContainsPattern(s.subgraph, p.graph(), match_options_)) {
        out.push_back(s.graph_index);
      }
    }
    return out;
  }

  std::vector<int> LabelsOfPattern(const Pattern& p) const {
    std::vector<int> out;
    for (const auto& [label, view] : views_) {
      for (const Pattern& q : view.patterns) {
        if (q.IsomorphicTo(p)) {
          out.push_back(label);
          break;
        }
      }
    }
    return out;
  }

  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const {
    std::vector<int> out;
    if (db_ == nullptr) return out;
    for (int i = 0; i < db_->size(); ++i) {
      if (label >= 0) {
        const int l = db_->has_predictions() ? db_->predicted_label(i)
                                             : db_->true_label(i);
        if (l != label) continue;
      }
      if (BlindContainsPattern(db_->graph(i), p.graph(), match_options_)) {
        out.push_back(i);
      }
    }
    return out;
  }

  std::vector<Pattern> DiscriminativePatterns(int label) const {
    std::vector<Pattern> out;
    auto it = views_.find(label);
    if (it == views_.end()) return out;
    for (const Pattern& p : it->second.patterns) {
      bool found_elsewhere = false;
      for (const auto& [other_label, other_view] : views_) {
        if (other_label == label) continue;
        for (const auto& s : other_view.subgraphs) {
          if (BlindContainsPattern(s.subgraph, p.graph(), match_options_)) {
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

 private:
  const GraphDatabase* db_;
  MatchOptions match_options_;
  std::map<int, ExplanationView> views_;
};

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_SERVE_SCAN_REFERENCE_H_
