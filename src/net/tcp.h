#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace harmony {
namespace net {

/// Connects a blocking TCP socket to `host`:`port` — a dotted IPv4 address
/// or a name resolved to one — with TCP_NODELAY set, and returns its fd.
/// IOError when the name does not resolve or the connect fails.
Result<int> DialTcp(const std::string& host, uint16_t port);

/// Writes all of `bytes` to `fd`, retrying on EINTR. MSG_NOSIGNAL: a dead
/// peer surfaces as an EPIPE IOError, not a process-wide SIGPIPE.
Status SendAll(int fd, std::string_view bytes);

}  // namespace net
}  // namespace harmony
