#include "router/json_merge.h"

#include <cctype>
#include <string>

namespace cnpb::router {

namespace {

// Byte offset just past `"key":` at nesting depth 1 (directly inside the
// top-level object), or npos. Depth/string tracking keeps a key that also
// appears nested inside "results" from matching.
size_t FindTopLevelKey(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped byte
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (depth == 1 && json.compare(i, needle.size(), needle) == 0) {
          return i + needle.size();
        }
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        break;
      default:
        break;
    }
  }
  return std::string_view::npos;
}

}  // namespace

bool FindJsonArray(std::string_view json, std::string_view key,
                   std::string_view* out) {
  const size_t pos = FindTopLevelKey(json, key);
  if (pos == std::string_view::npos || pos >= json.size() ||
      json[pos] != '[') {
    return false;
  }
  int depth = 0;
  bool in_string = false;
  for (size_t i = pos; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '[':
      case '{':
        ++depth;
        break;
      case ']':
      case '}':
        --depth;
        if (depth == 0) {
          *out = json.substr(pos + 1, i - pos - 1);
          return true;
        }
        break;
      default:
        break;
    }
  }
  return false;  // unterminated
}

std::vector<std::string_view> SplitTopLevelJson(std::string_view contents) {
  std::vector<std::string_view> elements;
  if (contents.empty()) return elements;
  int depth = 0;
  bool in_string = false;
  size_t start = 0;
  for (size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '[':
      case '{':
        ++depth;
        break;
      case ']':
      case '}':
        --depth;
        break;
      case ',':
        if (depth == 0) {
          elements.push_back(contents.substr(start, i - start));
          start = i + 1;
        }
        break;
      default:
        break;
    }
  }
  elements.push_back(contents.substr(start));
  return elements;
}

}  // namespace cnpb::router
