#include "mapreduce/spill_writer.h"

#include <cstring>

namespace ngram::mr {

SpillWriter::SpillWriter(std::string path, Options options)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      options_(std::move(options)),
      env_(ResolveEnv(options_.env)) {}

SpillWriter::~SpillWriter() {
  if (!closed_) {
    Abandon();
  }
}

Status SpillWriter::Open() {
  Status st = env_->NewWritableFile(tmp_path_, &file_);
  if (!st.ok()) {
    closed_ = true;  // Nothing to unlink; fail all later calls.
    close_status_ = st.WithContext("create spill " + path_);
    return close_status_;
  }
  opened_ = true;
  if (options_.external_buffer != nullptr) {
    buffer_ = options_.external_buffer;
  } else {
    owned_buffer_ = std::make_unique<char[]>(options_.buffer_bytes);
    buffer_ = owned_buffer_.get();
  }
  return Status::OK();
}

Status SpillWriter::WriteDirect(const char* data, size_t n) {
  Status st = file_->Write(data, n);
  if (!st.ok()) {
    return st.WithContext("write spill " + path_);
  }
  return Status::OK();
}

Status SpillWriter::FlushBuffer() {
  if (buffered_ == 0) {
    return Status::OK();
  }
  Status st = WriteDirect(buffer_, buffered_);
  buffered_ = 0;
  return st;
}

Status SpillWriter::AppendRawBytes(const char* data, size_t n) {
  if (closed_) {
    return close_status_.ok() ? Status::Internal("spill writer closed")
                              : close_status_;
  }
  if (buffered_ + n > options_.buffer_bytes) {
    Status st = FlushBuffer();
    if (!st.ok()) {
      Abandon();
      return st;
    }
  }
  if (n > options_.buffer_bytes) {
    // Oversized append: bypass the (now empty) buffer entirely.
    Status st = WriteDirect(data, n);
    if (!st.ok()) {
      Abandon();
      return st;
    }
  } else {
    memcpy(buffer_ + buffered_, data, n);
    buffered_ += n;
  }
  bytes_written_ += n;
  return Status::OK();
}

Status SpillWriter::Close() {
  if (closed_) {
    return close_status_;
  }
  if (file_ == nullptr) {
    closed_ = true;
    close_status_ = Status::Internal("spill writer never opened");
    return close_status_;
  }
  // Commit sequence: flush our buffer, sync the file, close it, then
  // rename the temp name onto the committed path. Any failure leaves
  // nothing at path().
  Status st = FlushBuffer();
  if (st.ok()) {
    st = file_->Sync();
    if (!st.ok()) {
      st = st.WithContext("sync spill " + path_);
    }
  }
  Status close_st = file_->Close();
  file_ = nullptr;
  closed_ = true;
  if (st.ok() && !close_st.ok()) {
    st = close_st.WithContext("close spill " + path_);
  }
  if (st.ok()) {
    st = env_->Rename(tmp_path_, path_);
    if (!st.ok()) {
      st = st.WithContext("commit spill " + path_);
    }
  }
  if (!st.ok()) {
    (void)env_->Unlink(tmp_path_);
  }
  close_status_ = st;
  return st;
}

void SpillWriter::Abandon() {
  if (file_ != nullptr) {
    (void)file_->Close();
    file_ = nullptr;
  }
  if (opened_) {
    // The committed name never appeared (only Close() renames), so the
    // staged temp file is all there is to remove.
    (void)env_->Unlink(tmp_path_);
  }
  closed_ = true;
  if (close_status_.ok()) {
    close_status_ = Status::Internal("spill writer abandoned");
  }
}

}  // namespace ngram::mr
