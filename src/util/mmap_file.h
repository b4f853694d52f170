#ifndef CNPROBASE_UTIL_MMAP_FILE_H_
#define CNPROBASE_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cnpb::util {

// A read-only memory-mapped file. Open() maps the whole file shared and
// read-only; the mapping (and therefore every pointer into it) stays valid
// until the object is destroyed or moved-from. The kernel pages bytes in on
// demand, so "loading" a file this way costs one open/fstat/mmap regardless
// of file size — the zero-copy substrate under
// taxonomy::ServingView::Load.
//
// A zero-length file maps to {data() == nullptr, size() == 0} rather than an
// error; callers that need a non-empty payload must check size() themselves.
class MmapFile {
 public:
  // Maps `path` read-only. kNotFound when `path` does not exist; kIoError
  // when the file cannot be opened, stat'ed or mapped.
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }
  const std::string& path() const { return path_; }

 private:
  void Reset();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace cnpb::util

#endif  // CNPROBASE_UTIL_MMAP_FILE_H_
