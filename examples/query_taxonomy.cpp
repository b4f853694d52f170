// Loads a taxonomy snapshot saved by build_taxonomy and serves ad-hoc
// queries — demonstrates the persistence layer and offline reuse of a built
// taxonomy: the file is mmap'd and answers straight off its bytes.
//
//   ./query_taxonomy <taxonomy.snap> [term ...]
// With no terms, prints summary statistics and a few sample concepts.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "taxonomy/view.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace cnpb;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <taxonomy.snap> [term ...]\n"
                 "hint: run build_taxonomy first; it writes "
                 "/tmp/cnprobase_taxonomy.snap\n",
                 argv[0]);
    return 2;
  }
  auto loaded = taxonomy::ServingView::Load(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                 loaded.status().ToString().c_str());
    return 1;
  }
  const taxonomy::ServingView& view = **loaded;
  const auto name = [&view](taxonomy::NodeId id) {
    return std::string(view.Name(id));
  };
  size_t entities = 0;
  for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
    if (view.Kind(id) == taxonomy::NodeKind::kEntity) ++entities;
  }
  std::printf("loaded %s entities, %s concepts, %s isA relations\n",
              util::CommaSeparated(entities).c_str(),
              util::CommaSeparated(view.num_nodes() - entities).c_str(),
              util::CommaSeparated(view.num_edges()).c_str());

  if (argc == 2) {
    // No query terms: show the largest concepts.
    std::printf("\nlargest concepts by hyponym count:\n");
    std::vector<std::pair<size_t, taxonomy::NodeId>> sized;
    for (taxonomy::NodeId id = 0; id < view.num_nodes(); ++id) {
      if (view.Kind(id) == taxonomy::NodeKind::kConcept) {
        sized.emplace_back(view.NumHyponyms(id), id);
      }
    }
    std::sort(sized.rbegin(), sized.rend());
    for (size_t i = 0; i < std::min<size_t>(10, sized.size()); ++i) {
      std::printf("  %-12s %zu hyponyms\n", name(sized[i].second).c_str(),
                  sized[i].first);
    }
    return 0;
  }

  for (int i = 2; i < argc; ++i) {
    const taxonomy::NodeId id = view.Find(argv[i]);
    std::printf("\n\"%s\": ", argv[i]);
    if (id == taxonomy::kInvalidNode) {
      std::printf("not in taxonomy\n");
      continue;
    }
    std::printf("%s\n", view.Kind(id) == taxonomy::NodeKind::kConcept
                            ? "concept"
                            : "entity");
    std::printf("  hypernyms: ");
    view.VisitHypernyms(id, [&](const taxonomy::HalfEdge& edge) {
      std::printf("%s(%s) ", name(edge.node).c_str(),
                  taxonomy::SourceName(edge.source));
      return true;
    });
    std::printf("\n  transitive hypernyms: ");
    for (taxonomy::NodeId up : view.TransitiveHypernyms(id)) {
      std::printf("%s ", name(up).c_str());
    }
    std::printf("\n  hyponyms (%zu): ", view.NumHyponyms(id));
    size_t shown = 0;
    view.VisitHyponyms(id, [&](const taxonomy::HalfEdge& edge) {
      std::printf("%s ", name(edge.node).c_str());
      return ++shown < 8;
    });
    std::printf("\n");
  }
  return 0;
}
