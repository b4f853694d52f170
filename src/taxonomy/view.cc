#include "taxonomy/view.h"

#include <algorithm>

namespace cnpb::taxonomy {

namespace {

// The visited ids of one walk: open addressing over a power-of-two table
// that doubles at half load, so its size follows what the walk reaches
// rather than the node count.
class VisitedSet {
 public:
  // Returns whether `id` was new.
  bool Insert(NodeId id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    if (!Place(&slots_, id)) return false;
    ++size_;
    return true;
  }

 private:
  static bool Place(std::vector<NodeId>* slots, NodeId id) {
    const size_t mask = slots->size() - 1;
    for (size_t slot = (id * 0x9E3779B97F4A7C15ull) >> 32 & mask;;
         slot = (slot + 1) & mask) {
      if ((*slots)[slot] == id) return false;
      if ((*slots)[slot] == kInvalidNode) {
        (*slots)[slot] = id;
        return true;
      }
    }
  }
  void Grow() {
    std::vector<NodeId> grown(std::max<size_t>(16, 2 * slots_.size()),
                              kInvalidNode);
    for (const NodeId id : slots_) {
      if (id != kInvalidNode) Place(&grown, id);
    }
    slots_.swap(grown);
  }

  std::vector<NodeId> slots_;
  size_t size_ = 0;
};

}  // namespace

uint32_t ServingView::DeltaRow(NodeId id) const {
  const uint32_t base_nodes = image_.num_names;
  if (id >= base_nodes) {
    return id < num_nodes_ ? delta_.num_patched + (id - base_nodes)
                           : kInvalidNode;
  }
  const uint32_t* const end = delta_.row_ids + delta_.num_patched;
  const uint32_t* const it = std::lower_bound(delta_.row_ids, end, id);
  return it != end && *it == id ? static_cast<uint32_t>(it - delta_.row_ids)
                                : kInvalidNode;
}

NodeId ServingView::FindAppended(std::string_view name) const {
  const NodeId appended = delta_.FindName(name);
  return appended == kInvalidNode ? kInvalidNode
                                  : image_.num_names + appended;
}

NodeKind ServingView::LayeredKind(NodeId id) const {
  const uint32_t row = DeltaRow(id);
  return static_cast<NodeKind>(row != kInvalidNode ? delta_.kinds[row]
                                                   : image_.kinds[id]);
}

std::vector<NodeId> ServingView::TransitiveHypernyms(NodeId id,
                                                     size_t limit) const {
  std::vector<NodeId> result;
  if (id >= num_nodes_) return result;
  VisitedSet seen;
  std::vector<NodeId> frontier = {id};
  seen.Insert(id);
  while (!frontier.empty() && result.size() < limit) {
    const NodeId current = frontier.back();
    frontier.pop_back();
    VisitHypernyms(current, [&](const HalfEdge& edge) {
      if (seen.Insert(edge.node)) {
        result.push_back(edge.node);
        frontier.push_back(edge.node);
      }
      return true;
    });
  }
  return result;
}

}  // namespace cnpb::taxonomy
