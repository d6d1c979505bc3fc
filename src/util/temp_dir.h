// RAII temporary directory for shuffle spill files and other job scratch.
#pragma once

#include <filesystem>
#include <string>

#include "util/macros.h"
#include "util/result.h"

namespace ngram {

/// \brief Creates a unique directory under the system temp path and removes
/// it (recursively) on destruction.
class TempDir {
 public:
  /// Creates a fresh directory whose name starts with `prefix`.
  static Result<TempDir> Create(const std::string& prefix);

  TempDir(TempDir&& other) noexcept : path_(std::move(other.path_)) {
    other.path_.clear();
  }
  TempDir& operator=(TempDir&& other) noexcept {
    if (this != &other) {
      Remove();
      path_ = std::move(other.path_);
      other.path_.clear();
    }
    return *this;
  }
  ~TempDir() { Remove(); }

  NGRAM_DISALLOW_COPY_AND_ASSIGN(TempDir);

  const std::filesystem::path& path() const { return path_; }

  /// Returns `path()/name` as a string.
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  explicit TempDir(std::filesystem::path path) : path_(std::move(path)) {}
  void Remove();

  std::filesystem::path path_;
};

}  // namespace ngram
