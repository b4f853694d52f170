#include "taxonomy/view.h"

namespace cnpb::taxonomy {

std::vector<NodeId> ServingView::TransitiveHypernyms(NodeId id,
                                                     size_t limit) const {
  std::vector<NodeId> result;
  if (id >= num_nodes_) return result;
  std::vector<bool> seen(num_nodes_, false);
  std::vector<NodeId> frontier = {id};
  seen[id] = true;
  while (!frontier.empty() && result.size() < limit) {
    const NodeId current = frontier.back();
    frontier.pop_back();
    VisitHypernyms(current, [&](const HalfEdge& edge) {
      if (!seen[edge.node]) {
        seen[edge.node] = true;
        result.push_back(edge.node);
        frontier.push_back(edge.node);
      }
      return true;
    });
  }
  return result;
}

}  // namespace cnpb::taxonomy
