#include "taxonomy/taxonomy.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace cnpb::taxonomy {

const char* SourceName(Source source) {
  switch (source) {
    case Source::kBracket:
      return "bracket";
    case Source::kAbstract:
      return "abstract";
    case Source::kInfobox:
      return "infobox";
    case Source::kTag:
      return "tag";
    case Source::kTranslation:
      return "translation";
    case Source::kImported:
      return "imported";
  }
  return "unknown";
}

const std::vector<IsaEdge>& Taxonomy::EmptyEdges() {
  static const std::vector<IsaEdge>* empty = new std::vector<IsaEdge>();
  return *empty;
}

Taxonomy Taxonomy::Clone() const {
  Taxonomy copy;
  copy.names_ = names_;
  copy.kinds_ = kinds_;
  // index_ keys view into names_, so the copy re-keys into its own names.
  copy.index_.reserve(index_.size());
  for (NodeId id = 0; id < copy.names_.size(); ++id) {
    copy.index_.emplace(std::string_view(copy.names_[id]), id);
  }
  copy.hypernyms_ = hypernyms_;
  copy.hyponyms_ = hyponyms_;
  copy.num_edges_ = num_edges_;
  std::copy(std::begin(source_counts_), std::end(source_counts_),
            std::begin(copy.source_counts_));
  return copy;
}

NodeId Taxonomy::AddNode(std::string_view name, NodeKind kind) {
  CNPB_CHECK(!name.empty());
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.emplace_back(name);
  kinds_.push_back(kind);
  index_.emplace(std::string_view(names_.back()), id);
  return id;
}

void Taxonomy::PromoteToConcept(NodeId id) {
  CNPB_CHECK(id < kinds_.size());
  kinds_[id] = NodeKind::kConcept;
}

bool Taxonomy::AddIsa(NodeId hypo, NodeId hyper, Source source, float score) {
  CNPB_CHECK(hypo < names_.size() && hyper < names_.size());
  if (hypo == hyper) return false;
  if (HasIsa(hypo, hyper)) return false;
  IsaEdge edge;
  edge.hypo = hypo;
  edge.hyper = hyper;
  edge.source = source;
  edge.score = score;
  hypernyms_[hypo].push_back(edge);
  hyponyms_[hyper].push_back(edge);
  ++num_edges_;
  ++source_counts_[static_cast<int>(source)];
  return true;
}

bool Taxonomy::AddIsa(std::string_view hypo, std::string_view hyper,
                      Source source, float score, NodeKind hypo_kind) {
  const NodeId h1 = AddNode(hypo, hypo_kind);
  const NodeId h2 = AddNode(hyper, NodeKind::kConcept);
  return AddIsa(h1, h2, source, score);
}

bool Taxonomy::RemoveIsa(NodeId hypo, NodeId hyper) {
  auto it = hypernyms_.find(hypo);
  if (it == hypernyms_.end()) return false;
  auto& out_edges = it->second;
  auto pos = std::find_if(out_edges.begin(), out_edges.end(),
                          [&](const IsaEdge& e) { return e.hyper == hyper; });
  if (pos == out_edges.end()) return false;
  const Source source = pos->source;
  out_edges.erase(pos);

  auto& in_edges = hyponyms_[hyper];
  auto in_pos = std::find_if(in_edges.begin(), in_edges.end(),
                             [&](const IsaEdge& e) { return e.hypo == hypo; });
  CNPB_CHECK(in_pos != in_edges.end());
  in_edges.erase(in_pos);

  --num_edges_;
  --source_counts_[static_cast<int>(source)];
  return true;
}

NodeId Taxonomy::Find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidNode : it->second;
}

bool Taxonomy::HasIsa(NodeId hypo, NodeId hyper) const {
  auto it = hypernyms_.find(hypo);
  if (it == hypernyms_.end()) return false;
  for (const IsaEdge& e : it->second) {
    if (e.hyper == hyper) return true;
  }
  return false;
}

const std::string& Taxonomy::Name(NodeId id) const {
  CNPB_CHECK(id < names_.size());
  return names_[id];
}

NodeKind Taxonomy::Kind(NodeId id) const {
  CNPB_CHECK(id < kinds_.size());
  return kinds_[id];
}

size_t Taxonomy::NumEntities() const {
  size_t n = 0;
  for (NodeKind kind : kinds_) {
    if (kind == NodeKind::kEntity) ++n;
  }
  return n;
}

size_t Taxonomy::NumConcepts() const { return names_.size() - NumEntities(); }

size_t Taxonomy::NumEntityConceptEdges() const {
  size_t n = 0;
  for (const auto& [node, edges] : hypernyms_) {
    if (kinds_[node] == NodeKind::kEntity) n += edges.size();
  }
  return n;
}

size_t Taxonomy::NumSubconceptEdges() const {
  return num_edges_ - NumEntityConceptEdges();
}

size_t Taxonomy::NumEdgesFromSource(Source source) const {
  return source_counts_[static_cast<int>(source)];
}

const std::vector<IsaEdge>& Taxonomy::Hypernyms(NodeId id) const {
  auto it = hypernyms_.find(id);
  return it == hypernyms_.end() ? EmptyEdges() : it->second;
}

const std::vector<IsaEdge>& Taxonomy::Hyponyms(NodeId id) const {
  auto it = hyponyms_.find(id);
  return it == hyponyms_.end() ? EmptyEdges() : it->second;
}

std::vector<NodeId> Taxonomy::TransitiveHypernyms(NodeId id,
                                                  size_t limit) const {
  std::vector<NodeId> result;
  std::vector<bool> seen(names_.size(), false);
  std::vector<NodeId> frontier = {id};
  seen[id] = true;
  while (!frontier.empty() && result.size() < limit) {
    const NodeId current = frontier.back();
    frontier.pop_back();
    for (const IsaEdge& edge : Hypernyms(current)) {
      if (!seen[edge.hyper]) {
        seen[edge.hyper] = true;
        result.push_back(edge.hyper);
        frontier.push_back(edge.hyper);
      }
    }
  }
  return result;
}

bool Taxonomy::WouldCreateCycle(NodeId hypo, NodeId hyper) const {
  if (hypo == hyper) return true;
  // Cycle iff hypo is reachable upward from hyper.
  std::vector<bool> seen(names_.size(), false);
  std::vector<NodeId> frontier = {hyper};
  seen[hyper] = true;
  while (!frontier.empty()) {
    const NodeId current = frontier.back();
    frontier.pop_back();
    for (const IsaEdge& edge : Hypernyms(current)) {
      if (edge.hyper == hypo) return true;
      if (!seen[edge.hyper]) {
        seen[edge.hyper] = true;
        frontier.push_back(edge.hyper);
      }
    }
  }
  return false;
}

bool Taxonomy::IsAcyclic() const {
  // Iterative three-colour DFS over all nodes.
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(names_.size(), kWhite);
  std::vector<std::pair<NodeId, size_t>> stack;
  for (NodeId start = 0; start < names_.size(); ++start) {
    if (color[start] != kWhite) continue;
    stack.emplace_back(start, 0);
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [node, edge_index] = stack.back();
      const auto& edges = Hypernyms(node);
      if (edge_index < edges.size()) {
        const NodeId next = edges[edge_index].hyper;
        ++edge_index;
        if (color[next] == kGray) return false;
        if (color[next] == kWhite) {
          color[next] = kGray;
          stack.emplace_back(next, 0);
        }
      } else {
        color[node] = kBlack;
        stack.pop_back();
      }
    }
  }
  return true;
}

void Taxonomy::ForEachEdge(
    const std::function<void(const IsaEdge&)>& fn) const {
  for (NodeId id = 0; id < names_.size(); ++id) {
    auto it = hypernyms_.find(id);
    if (it == hypernyms_.end()) continue;
    for (const IsaEdge& edge : it->second) fn(edge);
  }
}

std::vector<NodeId> Taxonomy::NodesOfKind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < names_.size(); ++id) {
    if (kinds_[id] == kind) out.push_back(id);
  }
  return out;
}

}  // namespace cnpb::taxonomy
