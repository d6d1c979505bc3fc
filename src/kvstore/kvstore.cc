#include "kvstore/kvstore.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "encoding/varint.h"
#include "util/crc32.h"

namespace ngram::kv {

namespace {
constexpr uint8_t kRecordPut = 0;
}  // namespace

Result<std::unique_ptr<KVStore>> KVStore::OpenEmpty(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ec) {
    std::filesystem::create_directories(dir, ec);
  }
  if (ec) {
    return Status::IOError("cannot create empty KV dir " + dir + ": " +
                           ec.message());
  }
  std::string log_path = dir + "/seg-000000.log";
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("create " + log_path + ": " + strerror(errno));
  }
  return std::unique_ptr<KVStore>(new KVStore(std::move(log_path), fd));
}

void KVStore::Destroy(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // Best effort.
}

KVStore::~KVStore() { ::close(fd_); }

Status KVStore::Put(Slice key) {
  std::string record;
  record.reserve(1 + 2 * kMaxVarint64Bytes + key.size() + 4);
  record.push_back(static_cast<char>(kRecordPut));
  PutVarint64(&record, key.size());
  PutVarint64(&record, 0);  // Value length: the set stores keys only.
  record.append(key.data(), key.size());
  PutFixed32(&record, Crc32(0, record.data(), record.size()));

  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IOError("write " + log_path_ + ": " + strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  keys_.insert(key.ToString());
  return Status::OK();
}

bool KVStore::Contains(Slice key) const {
  return keys_.count(key.ToString()) != 0;
}

}  // namespace ngram::kv
