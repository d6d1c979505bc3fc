#include "mapreduce/io_env.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace ngram::mr {

namespace {

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

// ------------------------------------------------- stdio passthrough ----

class StdioReadableFile final : public ReadableFile {
 public:
  StdioReadableFile(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~StdioReadableFile() override { std::fclose(file_); }

  Status Read(char* dst, size_t n, size_t* read) override {
    *read = std::fread(dst, 1, n, file_);
    if (*read < n && std::ferror(file_)) {
      return Status::IOError(Errno("read", path_));
    }
    return Status::OK();
  }

  Status Seek(uint64_t offset) override {
    if (fseeko(file_, static_cast<off_t>(offset), SEEK_SET) != 0) {
      return Status::IOError(Errno("seek", path_));
    }
    return Status::OK();
  }

 private:
  FILE* file_;
  const std::string path_;
};

class StdioWritableFile final : public WritableFile {
 public:
  StdioWritableFile(FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~StdioWritableFile() override {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  Status Write(const char* data, size_t n) override {
    if (std::fwrite(data, 1, n, file_) != n) {
      return Status::IOError(Errno("write", path_));
    }
    return Status::OK();
  }

  Status Sync() override {
    // Flushes user-space buffers only. A physical fsync would guard
    // against OS crashes this single-process runtime cannot survive
    // anyway, and costs one disk barrier per run file at spill-heavy
    // scale — the commit protocol needs the ordering point, not the
    // durability.
    if (std::fflush(file_) != 0) {
      return Status::IOError(Errno("sync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) {
      return Status::OK();
    }
    FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IOError(Errno("close", path_));
    }
    return Status::OK();
  }

 private:
  FILE* file_;
  const std::string path_;
};

class StdioEnv final : public IoEnv {
 public:
  Status NewReadableFile(const std::string& path, size_t buffer_hint,
                         std::unique_ptr<ReadableFile>* file) override {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError(Errno("open", path));
    }
    if (buffer_hint > 0) {
      // Best effort: a failed setvbuf only costs smaller physical reads.
      (void)std::setvbuf(f, nullptr, _IOFBF, buffer_hint);
    }
    *file = std::make_unique<StdioReadableFile>(f, path);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError(Errno("create", path));
    }
    *file = std::make_unique<StdioWritableFile>(f, path);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(Errno("rename", from) + " -> " + to);
    }
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(Errno("unlink", path));
    }
    return Status::OK();
  }

  Status FileSize(const std::string& path, uint64_t* size) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IOError(Errno("stat", path));
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }
};

// ----------------------------------------------------------- mmap ------

/// mmap(2)-backed MmapFile. Unmapped on destruction.
class PosixMmapFile final : public MmapFile {
 public:
  PosixMmapFile(void* base, size_t size) : base_(base), size_(size) {}
  ~PosixMmapFile() override {
    if (base_ != nullptr) {
      ::munmap(base_, size_);
    }
  }

  Slice data() const override {
    return Slice(static_cast<const char*>(base_), size_);
  }

 private:
  void* base_;
  const size_t size_;
};

}  // namespace

Status IoEnv::NewMmapFile(const std::string& path,
                          std::unique_ptr<MmapFile>* file) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(Errno("open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(Errno("stat", path));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* base = nullptr;
  if (size > 0) {
    base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      const Status status = Status::IOError(Errno("mmap", path));
      ::close(fd);
      return status;
    }
  }
  ::close(fd);  // The mapping keeps the file alive.
  *file = std::make_unique<PosixMmapFile>(base, size);
  return Status::OK();
}

IoEnv* IoEnv::Default() {
  static StdioEnv* env = new StdioEnv();  // Never destroyed: needed in dtors.
  return env;
}

// ------------------------------------------------------- fault plans ----

namespace {

// SplitMix64: the standard seed-expansion mix (same generator random.h
// uses for xoshiro seeding) so nearby seeds produce unrelated plans.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlan FaultPlan::FromSeed(uint64_t seed) {
  FaultPlan plan;
  const uint64_t r0 = Mix64(seed);
  const uint64_t r1 = Mix64(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  const uint64_t r2 = Mix64(seed ^ 0x0123456789abcdefULL);
  switch (r0 % 6) {
    case 0:
      plan.kind = Kind::kReadError;
      break;
    case 1:
      plan.kind = Kind::kWriteError;
      break;
    case 2:
      plan.kind = Kind::kShortWrite;
      break;
    case 3:
      plan.kind = Kind::kBitFlip;
      break;
    case 4:
      plan.kind = Kind::kCommitError;
      break;
    default:
      plan.kind = Kind::kRenameError;
      break;
  }
  // Op ranges are tuned to the chaos harness's spill-heavy config: reads
  // and writes number in the hundreds per job there, syncs/renames once
  // per run file. Indices past the job's op count never fire (degenerate
  // dichotomy arm), which keeps the sweep honest about clean completions.
  switch (plan.kind) {
    case Kind::kReadError:
      plan.op = 1 + r1 % 512;
      break;
    case Kind::kWriteError:
    case Kind::kShortWrite:
    case Kind::kBitFlip:
      plan.op = 1 + r1 % 256;
      break;
    case Kind::kCommitError:
    case Kind::kRenameError:
      plan.op = 1 + r1 % 24;
      break;
    case Kind::kNone:
      break;
  }
  plan.bit = r2;
  return plan;
}

const char* FaultPlan::KindName(Kind kind) {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kReadError:
      return "read-error";
    case Kind::kWriteError:
      return "write-error";
    case Kind::kShortWrite:
      return "short-write";
    case Kind::kBitFlip:
      return "bit-flip";
    case Kind::kCommitError:
      return "commit-error";
    case Kind::kRenameError:
      return "rename-error";
  }
  return "unknown";
}

std::string FaultPlan::ToString() const {
  return std::string(KindName(kind)) + " at op " + std::to_string(op) +
         (kind == Kind::kBitFlip ? " bit " + std::to_string(bit) : "");
}

// --------------------------------------------------------- fault env ----

// Named (not anonymous-namespace) classes: they are the header's friends.
class FaultReadableFile final : public ReadableFile {
 public:
  FaultReadableFile(std::unique_ptr<ReadableFile> base, std::string path,
                    FaultEnv* env)
      : base_(std::move(base)), path_(std::move(path)), env_(env) {}

  Status Read(char* dst, size_t n, size_t* read) override;
  Status Seek(uint64_t offset) override { return base_->Seek(offset); }

 private:
  std::unique_ptr<ReadableFile> base_;
  const std::string path_;
  FaultEnv* env_;
};

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, std::string path,
                    FaultEnv* env)
      : base_(std::move(base)), path_(std::move(path)), env_(env) {}

  Status Write(const char* data, size_t n) override;
  Status Sync() override;
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  const std::string path_;
  FaultEnv* env_;
};

namespace {

std::string Injected(const char* what, const std::string& path,
                     uint64_t op) {
  return std::string("injected ") + what + " on " + path + " (op " +
         std::to_string(op) + ")";
}

}  // namespace

Status FaultReadableFile::Read(char* dst, size_t n, size_t* read) {
  const uint64_t op = env_->reads_.fetch_add(1) + 1;
  if (env_->ShouldFire(FaultPlan::Kind::kReadError, op)) {
    *read = 0;
    return Status::IOError(Injected("EIO reading", path_, op));
  }
  return base_->Read(dst, n, read);
}

Status FaultWritableFile::Write(const char* data, size_t n) {
  const uint64_t op = env_->writes_.fetch_add(1) + 1;
  const FaultPlan& plan = env_->plan_;
  if (plan.kind == FaultPlan::Kind::kBitFlip &&
      env_->ShouldFire(FaultPlan::Kind::kBitFlip, op) && n > 0) {
    // Silent corruption: one bit of this buffer lands inverted on disk
    // and the writer never learns. Only the block CRCs can catch this.
    std::vector<char> flipped(data, data + n);
    const uint64_t bit = plan.bit % (static_cast<uint64_t>(n) * 8);
    flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    return base_->Write(flipped.data(), n);
  }
  if (plan.kind == FaultPlan::Kind::kShortWrite &&
      env_->ShouldFire(FaultPlan::Kind::kShortWrite, op)) {
    // Torn write: a prefix reaches the file, then the device fills up.
    Status ignored = base_->Write(data, n / 2);
    (void)ignored;
    return Status::IOError(Injected("ENOSPC (short write) writing", path_, op));
  }
  if (env_->ShouldFire(FaultPlan::Kind::kWriteError, op)) {
    return Status::IOError(Injected("ENOSPC writing", path_, op));
  }
  return base_->Write(data, n);
}

Status FaultWritableFile::Sync() {
  const uint64_t op = env_->syncs_.fetch_add(1) + 1;
  if (env_->ShouldFire(FaultPlan::Kind::kCommitError, op)) {
    // Data is already written; the commit barrier fails, so the rename
    // never runs and the temp file must be cleaned up by the writer.
    return Status::IOError(Injected("EIO syncing", path_, op));
  }
  return base_->Sync();
}

bool FaultEnv::ShouldFire(FaultPlan::Kind kind, uint64_t count) {
  if (plan_.kind != kind || count != plan_.op) {
    return false;
  }
  bool expected = false;
  return fired_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel);
}

Status FaultEnv::NewReadableFile(const std::string& path, size_t buffer_hint,
                                 std::unique_ptr<ReadableFile>* file) {
  std::unique_ptr<ReadableFile> base;
  Status status = base_->NewReadableFile(path, buffer_hint, &base);
  if (!status.ok()) {
    return status;
  }
  *file = std::make_unique<FaultReadableFile>(std::move(base), path, this);
  return Status::OK();
}

Status FaultEnv::NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> base;
  Status status = base_->NewWritableFile(path, &base);
  if (!status.ok()) {
    return status;
  }
  *file = std::make_unique<FaultWritableFile>(std::move(base), path, this);
  return Status::OK();
}

Status FaultEnv::Rename(const std::string& from, const std::string& to) {
  const uint64_t op = renames_.fetch_add(1) + 1;
  if (ShouldFire(FaultPlan::Kind::kRenameError, op)) {
    return Status::IOError(Injected("EIO renaming", from, op) + " -> " + to);
  }
  return base_->Rename(from, to);
}

Status FaultEnv::Unlink(const std::string& path) { return base_->Unlink(path); }

Status FaultEnv::FileSize(const std::string& path, uint64_t* size) {
  return base_->FileSize(path, size);
}

}  // namespace ngram::mr
