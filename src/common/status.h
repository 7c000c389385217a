#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace harmony {

/// Error/result idiom used across the library (RocksDB-style): functions that
/// can fail return Status (or Result<T>), never throw on hot paths.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kIOError,
    kBusy,
    kAborted,
    kNotSupported,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string out;
    switch (code_) {
      case Code::kNotFound: out = "NotFound"; break;
      case Code::kCorruption: out = "Corruption"; break;
      case Code::kInvalidArgument: out = "InvalidArgument"; break;
      case Code::kIOError: out = "IOError"; break;
      case Code::kBusy: out = "Busy"; break;
      case Code::kAborted: out = "Aborted"; break;
      case Code::kNotSupported: out = "NotSupported"; break;
      default: out = "Unknown"; break;
    }
    if (!msg_.empty()) {
      out += ": ";
      out += msg_;
    }
    return out;
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

/// Result<T> carries either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}              // NOLINT(implicit)
  Result(Status status) : v_(std::move(status)) {        // NOLINT(implicit)
    assert(!std::get<Status>(v_).ok() && "Result(Status) must carry an error");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(v_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> v_;
};

#define HARMONY_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::harmony::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace harmony
