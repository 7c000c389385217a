#include "net/tcp.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace harmony {
namespace net {

Result<int> DialTcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    return Status::IOError("cannot resolve " + host);
  }
  sockaddr_in addr{};
  std::memcpy(&addr, res->ai_addr, sizeof(addr));  // AF_INET: a sockaddr_in
  ::freeaddrinfo(res);
  addr.sin_port = htons(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError("connect " + host + ":" + std::to_string(port) +
                               ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace harmony
