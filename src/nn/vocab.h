#ifndef CNPROBASE_NN_VOCAB_H_
#define CNPROBASE_NN_VOCAB_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cnpb::nn {

// Token <-> id mapping with reserved <pad>/<unk>/<eos>. Separate input and
// output vocabularies are the norm for copy models: the output vocabulary is
// deliberately small and rare words are reachable only through copying.
class Vocab {
 public:
  static constexpr int kPad = 0;
  static constexpr int kUnk = 1;
  static constexpr int kEos = 2;

  Vocab();

  // Adds a word (idempotent); returns its id.
  int Add(std::string_view word);
  // Id of word, or -1 when it is absent.
  int Find(std::string_view word) const;
  // Id of word, or kUnk.
  int Id(std::string_view word) const;
  bool Contains(std::string_view word) const;
  const std::string& Word(int id) const;
  int size() const { return static_cast<int>(words_.size()); }

  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

 private:
  // Transparent, so a string_view probes the index without a copy.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> words_;
  std::unordered_map<std::string, int, Hash, std::equal_to<>> index_;
};

}  // namespace cnpb::nn

#endif  // CNPROBASE_NN_VOCAB_H_
