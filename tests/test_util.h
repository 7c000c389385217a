#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/status.h"
#include "core/session.h"

namespace harmony {

/// Scoped temp directory for tests that touch disk.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("harmony-test-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string path() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// A whole file's bytes; empty when the file cannot be opened.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A submit's admission verdict: a rejection resolves its receipt
/// synchronously, so a ticket still in flight (or already settled) was
/// admitted.
inline Status AdmitStatus(const TxnTicket& t) {
  std::optional<TxnReceipt> r = t.TryGet();
  return r && r->outcome == ReceiptOutcome::kRejected ? r->status
                                                      : Status::OK();
}

#define ASSERT_OK(expr)                                            \
  do {                                                             \
    ::harmony::Status _st = (expr);                                \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

#define EXPECT_OK(expr)                                            \
  do {                                                             \
    ::harmony::Status _st = (expr);                                \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                       \
  } while (0)

}  // namespace harmony
