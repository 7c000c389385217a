#include "repl/peer_link.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/tcp.h"

namespace harmony {
namespace repl {

Result<std::unique_ptr<PeerLink>> PeerLink::Dial(const std::string& host,
                                                 uint16_t port) {
  auto fd = net::DialTcp(host, port);
  if (!fd.ok()) return fd.status();
  auto link = std::unique_ptr<PeerLink>(new PeerLink());
  link->fd_ = *fd;
  return link;
}

PeerLink::~PeerLink() {
  Close();
  if (fd_ >= 0) ::close(fd_);
}

Status PeerLink::Send(net::Opcode op, std::string_view payload) {
  if (closed()) return Status::IOError("link closed");
  const std::string frame = net::EncodeFrame(op, payload);
  std::lock_guard<std::mutex> lk(write_mu_);
  return net::SendAll(fd_, frame);
}

Status PeerLink::Recv(net::Frame* out) {
  char buf[64 << 10];
  for (;;) {
    const Status st = reasm_.Next(out);
    if (st.ok()) return st;
    if (!st.IsNotFound()) return st;  // Corruption: stream unrecoverable
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      reasm_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IOError("leader closed the link");
    if (errno == EINTR) continue;
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
}

void PeerLink::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown (not close) so a Recv blocked in recv() wakes with 0/error
  // while the fd number stays ours until the destructor.
  ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace repl
}  // namespace harmony
