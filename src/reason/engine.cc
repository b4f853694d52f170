#include "reason/engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace cnpb::reason {

namespace {

using taxonomy::HalfEdge;
using taxonomy::NodeId;
using taxonomy::ServingView;
using taxonomy::kInvalidNode;

// Sorts by (score desc, tie desc, id asc) and keeps the top k. The id leg
// makes the order total, which the determinism contract requires.
void RankTopK(std::vector<Scored>* scored, size_t k) {
  std::sort(scored->begin(), scored->end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.tie != b.tie) return a.tie > b.tie;
              return a.node < b.node;
            });
  if (scored->size() > k) scored->resize(k);
}

// Upward BFS from `start` (depth 0) through at most `max_depth` hypernym
// steps. Calls fn(node, minimal depth) once per distinct node in BFS order;
// fn returns false to stop the sweep. The visited set is the depth map —
// the explicit cycle guard every sweep in this file shares.
template <typename Fn>
void SweepUp(const ServingView& view, NodeId start, size_t max_depth,
             Fn&& fn) {
  const size_t n = view.num_nodes();
  if (start >= n) return;
  std::unordered_map<NodeId, uint32_t> depth;
  depth.emplace(start, 0);
  if (!fn(start, uint32_t{0})) return;
  std::vector<NodeId> cur{start};
  std::vector<NodeId> next;
  for (uint32_t d = 1; d <= max_depth && !cur.empty(); ++d) {
    next.clear();
    bool stopped = false;
    for (const NodeId u : cur) {
      view.VisitHypernyms(u, [&](const HalfEdge& edge) {
        const NodeId v = edge.node;
        if (!depth.emplace(v, d).second) return true;
        if (!fn(v, d)) {
          stopped = true;
          return false;
        }
        next.push_back(v);
        return true;
      });
      if (stopped) return;
    }
    cur.swap(next);
  }
}

}  // namespace

IsaResult IsaClosure(const ServingView& view, NodeId entity_id,
                     NodeId concept_id, size_t max_depth) {
  IsaResult out;
  const size_t n = view.num_nodes();
  if (entity_id >= n || concept_id >= n) return out;
  if (entity_id == concept_id) {
    out.reached = true;
    out.depth = 0;
    out.path = {entity_id};
    return out;
  }
  // parent[v] = node v was first reached from; doubles as the visited set
  // (the cycle guard) and the witness-path back-chain.
  std::unordered_map<NodeId, NodeId> parent;
  parent.emplace(entity_id, entity_id);
  std::vector<NodeId> cur{entity_id};
  std::vector<NodeId> next;
  for (size_t d = 1; d <= max_depth && !cur.empty(); ++d) {
    next.clear();
    for (const NodeId u : cur) {
      bool found = false;
      view.VisitHypernyms(u, [&](const HalfEdge& edge) {
        const NodeId v = edge.node;
        if (!parent.emplace(v, u).second) return true;
        if (v == concept_id) {
          found = true;
          return false;
        }
        next.push_back(v);
        return true;
      });
      if (found) {
        out.reached = true;
        out.depth = static_cast<int>(d);
        for (NodeId v = concept_id;; v = parent.at(v)) {
          out.path.push_back(v);
          if (v == entity_id) break;
        }
        std::reverse(out.path.begin(), out.path.end());
        return out;
      }
    }
    cur.swap(next);
  }
  return out;
}

std::vector<Ancestor> Ancestors(const ServingView& view, NodeId id,
                                size_t max_depth, size_t limit) {
  std::vector<Ancestor> out;
  SweepUp(view, id, max_depth, [&](NodeId node, uint32_t depth) {
    if (depth == 0) return true;  // the start node is not its own ancestor here
    out.push_back({node, depth});
    return out.size() < limit;
  });
  return out;
}

LcaResult LowestCommonAncestor(const ServingView& view, NodeId a, NodeId b,
                               size_t max_depth) {
  LcaResult best;
  const size_t n = view.num_nodes();
  if (a >= n || b >= n) return best;
  std::unordered_map<NodeId, uint32_t> depth_a;
  SweepUp(view, a, max_depth, [&](NodeId node, uint32_t depth) {
    depth_a.emplace(node, depth);
    return true;
  });
  bool have = false;
  SweepUp(view, b, max_depth, [&](NodeId node, uint32_t depth) {
    const auto it = depth_a.find(node);
    if (it == depth_a.end()) return true;
    const uint32_t da = it->second;
    const uint32_t db = depth;
    const uint64_t total = uint64_t{da} + db;
    const uint32_t worst = std::max(da, db);
    const uint64_t best_total = uint64_t{best.depth_a} + best.depth_b;
    const uint32_t best_worst = std::max(best.depth_a, best.depth_b);
    if (!have || total < best_total ||
        (total == best_total &&
         (worst < best_worst ||
          (worst == best_worst && node < best.node)))) {
      best.node = node;
      best.depth_a = da;
      best.depth_b = db;
      have = true;
    }
    return true;
  });
  return best;
}

std::vector<Scored> SimilarEntities(const ServingView& view, NodeId id,
                                    size_t k, size_t max_candidates) {
  std::vector<Scored> scored;
  const size_t n = view.num_nodes();
  if (id >= n || k == 0) return scored;
  std::vector<NodeId> hypers;
  std::unordered_set<NodeId> hyper_set;
  view.VisitHypernyms(id, [&](const HalfEdge& edge) {
    if (hyper_set.insert(edge.node).second) {
      hypers.push_back(edge.node);
    }
    return true;
  });
  if (hypers.empty()) return scored;
  // Candidates in canonical discovery order: hyponyms of each direct
  // hypernym, first shared parent first. The cap bounds the scan, not the
  // result quality past it — discovery order is deterministic, so every
  // copy of a version truncates identically.
  std::vector<NodeId> candidates;
  std::unordered_set<NodeId> cand_seen;
  for (const NodeId h : hypers) {
    if (candidates.size() >= max_candidates) break;
    view.VisitHyponyms(h, [&](const HalfEdge& edge) {
      if (candidates.size() >= max_candidates) return false;
      const NodeId c = edge.node;
      if (c != id && cand_seen.insert(c).second) {
        candidates.push_back(c);
      }
      return true;
    });
  }
  for (const NodeId c : candidates) {
    size_t total = 0;
    size_t shared = 0;
    float tie = 0.0f;
    std::unordered_set<NodeId> seen;
    view.VisitHypernyms(c, [&](const HalfEdge& edge) {
      if (!seen.insert(edge.node).second) return true;
      ++total;
      if (hyper_set.count(edge.node) > 0) {
        ++shared;
        tie = std::max(tie, edge.score);
      }
      return true;
    });
    if (shared == 0) continue;  // unreachable by construction, kept defensive
    const double unions =
        static_cast<double>(hypers.size() + total - shared);
    scored.push_back({c, static_cast<double>(shared) / unions, tie});
  }
  RankTopK(&scored, k);
  return scored;
}

std::vector<Scored> ExpandConcept(const ServingView& view, NodeId id,
                                  size_t k, size_t max_candidates) {
  std::vector<Scored> scored;
  const size_t n = view.num_nodes();
  if (id >= n || k == 0) return scored;
  std::vector<NodeId> children;
  std::unordered_set<NodeId> child_set;
  view.VisitHyponyms(id, [&](const HalfEdge& edge) {
    if (edge.node != id && child_set.insert(edge.node).second) {
      children.push_back(edge.node);
    }
    return true;
  });
  // The profile: hypernym -> weight. With children, weight is the fraction
  // of children carrying that hypernym (the seed itself excluded — every
  // child trivially has it). Without children, the seed's own hypernyms at
  // weight 1 describe what its siblings look like.
  std::unordered_map<NodeId, double> profile;
  std::vector<NodeId> profile_order;
  if (!children.empty()) {
    for (const NodeId c : children) {
      view.VisitHypernyms(c, [&](const HalfEdge& edge) {
        const NodeId h = edge.node;
        if (h == id) return true;
        const auto [it, inserted] = profile.emplace(h, 0.0);
        if (inserted) profile_order.push_back(h);
        it->second += 1.0;
        return true;
      });
    }
    for (auto& [h, weight] : profile) {
      weight /= static_cast<double>(children.size());
    }
  } else {
    view.VisitHypernyms(id, [&](const HalfEdge& edge) {
      if (profile.emplace(edge.node, 1.0).second) {
        profile_order.push_back(edge.node);
      }
      return true;
    });
  }
  if (profile.empty()) return scored;
  std::vector<NodeId> candidates;
  std::unordered_set<NodeId> cand_seen;
  for (const NodeId h : profile_order) {
    if (candidates.size() >= max_candidates) break;
    view.VisitHyponyms(h, [&](const HalfEdge& edge) {
      if (candidates.size() >= max_candidates) return false;
      const NodeId c = edge.node;
      if (c != id && child_set.count(c) == 0 &&
          cand_seen.insert(c).second) {
        candidates.push_back(c);
      }
      return true;
    });
  }
  for (const NodeId c : candidates) {
    size_t total = 0;
    size_t matched = 0;
    double weight_sum = 0.0;
    float tie = 0.0f;
    std::unordered_set<NodeId> seen;
    view.VisitHypernyms(c, [&](const HalfEdge& edge) {
      const NodeId h = edge.node;
      if (h == id || !seen.insert(h).second) return true;
      ++total;
      const auto it = profile.find(h);
      if (it != profile.end()) {
        ++matched;
        weight_sum += it->second;
        tie = std::max(tie, edge.score);
      }
      return true;
    });
    if (matched == 0) continue;
    const double unions =
        static_cast<double>(profile.size() + total - matched);
    scored.push_back({c, weight_sum / unions, tie});
  }
  RankTopK(&scored, k);
  return scored;
}

}  // namespace cnpb::reason
