#include "nn/vocab.h"

#include "util/logging.h"

namespace cnpb::nn {

Vocab::Vocab() {
  Add("<pad>");
  Add("<unk>");
  Add("<eos>");
}

int Vocab::Add(std::string_view word) {
  const int found = Find(word);
  if (found >= 0) return found;
  const int id = static_cast<int>(words_.size());
  words_.emplace_back(word);
  index_.emplace(words_.back(), id);
  return id;
}

int Vocab::Find(std::string_view word) const {
  auto it = index_.find(word);
  return it == index_.end() ? -1 : it->second;
}

int Vocab::Id(std::string_view word) const {
  const int id = Find(word);
  return id < 0 ? kUnk : id;
}

bool Vocab::Contains(std::string_view word) const { return Find(word) >= 0; }

const std::string& Vocab::Word(int id) const {
  CNPB_CHECK(id >= 0 && static_cast<size_t>(id) < words_.size());
  return words_[id];
}

std::vector<int> Vocab::Encode(const std::vector<std::string>& tokens) const {
  std::vector<int> ids;
  ids.reserve(tokens.size());
  for (const std::string& token : tokens) ids.push_back(Id(token));
  return ids;
}

}  // namespace cnpb::nn
