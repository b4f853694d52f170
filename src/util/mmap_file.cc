#include "util/mmap_file.h"

#include <cerrno>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cnpb::util {

Result<MmapFile> MmapFile::Open(const std::string& path) {
#ifdef _WIN32
  return IoError("mmap is not supported on this platform: " + path);
#else
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("no such file: " + path);
    return IoError("cannot open for mapping: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return IoError("cannot stat: " + path);
  }
  MmapFile file;
  file.path_ = path;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* mapped = ::mmap(nullptr, file.size_, PROT_READ, MAP_SHARED, fd, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd);
      return IoError("mmap failed: " + path);
    }
    file.data_ = static_cast<const uint8_t*>(mapped);
  }
  // The mapping holds its own reference to the file; the descriptor is no
  // longer needed.
  ::close(fd);
  return file;
#endif
}

MmapFile::~MmapFile() { Reset(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_), size_(other.size_), path_(std::move(other.path_)) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapFile::Reset() {
#ifndef _WIN32
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
}

}  // namespace cnpb::util
