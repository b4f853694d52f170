#ifndef CNPROBASE_ROUTER_JSON_MERGE_H_
#define CNPROBASE_ROUTER_JSON_MERGE_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace cnpb::router {

// Minimal structural helpers for re-assembling backend batch responses.
// These are NOT a JSON parser: the input is the router's own backends'
// output (src/server/service.cc), which is trusted and schema-stable —
// top-level "version"/"results" keys, string values produced by
// util::JsonString (escaped, never containing raw quotes). The helpers are
// still string- and escape-aware so a Chinese mention containing '[' or
// '{' cannot desync the bracket matching.

// Finds `"key":[...]` and returns the contents between the brackets
// (exclusive) in *out. Bracket matching skips strings and escapes.
bool FindJsonArray(std::string_view json, std::string_view key,
                   std::string_view* out);

// Splits the contents of a JSON array into its top-level elements
// (comma-separated at depth 0, string-aware). Whitespace is not trimmed —
// the backends emit none. An empty input yields an empty vector.
std::vector<std::string_view> SplitTopLevelJson(std::string_view contents);

}  // namespace cnpb::router

#endif  // CNPROBASE_ROUTER_JSON_MERGE_H_
