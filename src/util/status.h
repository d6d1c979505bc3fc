// Status: error propagation without exceptions, in the style of
// RocksDB/Arrow. Library code returns Status (or Result<T>); it never throws.
#pragma once

#include <memory>
#include <string>
#include <utility>

namespace ngram {

/// Error categories used across the library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kIOError = 2,
  kNotFound = 3,
  kCorruption = 4,
  kOutOfRange = 5,
  kAlreadyExists = 6,
  kResourceExhausted = 7,
  kInternal = 8,
  kCancelled = 9,
  kNotImplemented = 10,
};

/// Returns a short human-readable name for a StatusCode ("OK", "IOError"...).
const char* StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation: either OK or a code plus message.
///
/// An error may name the file it is about (path()), so recovery can blame
/// its producer without parsing the message. Copies and WithContext()
/// keep it; ToString() leaves it out — messages already name the file.
///
/// The OK state carries no allocation; error states allocate a small state
/// object. Statuses are cheap to move and copy.
class [[nodiscard]] Status {
 public:
  Status() noexcept = default;  // OK.
  Status(StatusCode code, std::string msg);

  Status(const Status& other)
      : state_(other.state_ ? new State(*other.state_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      state_.reset(other.state_ ? new State(*other.state_) : nullptr);
    }
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }

  StatusCode code() const {
    return state_ == nullptr ? StatusCode::kOk : state_->code;
  }
  const std::string& message() const;
  /// The file this error is about; empty when none was attached.
  const std::string& path() const;

  /// Full "Code: message" rendering for logs and test failures.
  std::string ToString() const;

  /// Prefixes the message with additional context, keeping code and path.
  Status WithContext(const std::string& context) const;

  /// The same error, naming `path` as the file it is about. OK stays OK.
  Status WithPath(std::string path) const;

  /// Explicitly discards the status. The class is [[nodiscard]]; cleanup
  /// paths that genuinely do not care (e.g. best-effort unlinks of files
  /// that may already be gone) call this instead of silently dropping it.
  void IgnoreError() const {}

 private:
  struct State {
    StatusCode code;
    std::string msg;
    std::string path;
  };
  std::unique_ptr<State> state_;  // nullptr means OK.
};

}  // namespace ngram
