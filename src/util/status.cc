#include "util/status.h"

namespace ngram {

namespace {
const std::string kEmptyString;
}  // namespace

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string msg)
    : state_(new State{code, std::move(msg), std::string()}) {}

const std::string& Status::message() const {
  return state_ == nullptr ? kEmptyString : state_->msg;
}

const std::string& Status::path() const {
  return state_ == nullptr ? kEmptyString : state_->path;
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = StatusCodeToString(state_->code);
  out += ": ";
  out += state_->msg;
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) {
    return *this;
  }
  Status out(state_->code, context + ": " + state_->msg);
  out.state_->path = state_->path;
  return out;
}

Status Status::WithPath(std::string path) const {
  Status out = *this;
  if (!out.ok()) {
    out.state_->path = std::move(path);
  }
  return out;
}

}  // namespace ngram
