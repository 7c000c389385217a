#include "net/client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "chain/block.h"
#include "common/clock.h"
#include "net/tcp.h"

namespace harmony {
namespace net {

Result<std::unique_ptr<NetClient>> NetClient::Connect(
    const NetClientOptions& opts) {
  auto fd = DialTcp(opts.host, opts.port);
  if (!fd.ok()) return fd.status();

  auto client = std::unique_ptr<NetClient>(new NetClient());
  client->fd_ = *fd;
  client->max_frame_payload_ = opts.max_frame_payload;
  client->batch_max_txns_ =
      std::min<size_t>(std::max<size_t>(1, opts.batch_max_txns),
                       kMaxBatchTxns);
  client->batch_max_delay_us_ = opts.batch_max_delay_us;
  client->reader_ = std::thread([raw = client.get()] { raw->ReaderLoop(); });
  if (client->batch_max_txns_ > 1 && client->batch_max_delay_us_ > 0) {
    client->flusher_ =
        std::thread([raw = client.get()] { raw->FlusherLoop(); });
  }
  return client;
}

NetClient::~NetClient() {
  FlushBatch();  // best effort: don't strand buffered submits
  {
    std::lock_guard<std::mutex> lk(batch_mu_);
    flusher_stop_ = true;
  }
  batch_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  BreakConnection(Status::Aborted("client closed"));
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) ::close(fd_);
}

TxnTicket NetClient::Submit(TxnRequest req, ReceiptCallback cb) {
  if (req.client_seq == 0) {
    req.client_seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  } else {
    uint64_t cur = next_seq_.load(std::memory_order_relaxed);
    while (cur < req.client_seq &&
           !next_seq_.compare_exchange_weak(cur, req.client_seq,
                                            std::memory_order_relaxed)) {
    }
  }
  const uint64_t seq = req.client_seq;
  const uint64_t now = NowMicros();
  stats_->submitted.fetch_add(1, std::memory_order_relaxed);
  stats_->inflight.fetch_add(1, std::memory_order_acq_rel);
  auto entry = std::make_shared<PendingTxn>(now, seq, std::move(cb), stats_);

  // Resolves `entry` locally without a round trip (duplicate seq, broken
  // connection). PendingTxn::Resolve releases the inflight slot.
  auto local_reject = [&](ReceiptOutcome outcome, Status why) {
    TxnRequest identity;
    identity.client_id = req.client_id;
    identity.client_seq = seq;
    ResolvePending(entry.get(), identity, outcome, std::move(why),
                   /*block_id=*/0, NowMicros());
    return TxnTicket(entry, req.client_id, seq);
  };

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_.load(std::memory_order_acquire)) {
      return local_reject(ReceiptOutcome::kRejected,
                          broken_why_.ok()
                              ? Status::IOError("not connected")
                              : broken_why_);
    }
    PendingEntry pe;
    pe.entry = entry;
    pe.send_time_us = now;
    if (!pending_.emplace(seq, std::move(pe)).second) {
      return local_reject(
          ReceiptOutcome::kRejected,
          Status::InvalidArgument("duplicate client_seq " +
                                  std::to_string(seq) + " in flight"));
    }
  }

  std::string payload;
  BlockCodec::EncodeTxn(req, &payload);
  // Buffer the encoding; the ticket is already registered, so a connection
  // loss fails it like any sent submit. The flusher enforces the delay
  // bound; the size bound (batch_max_txns = 1: every submit) flushes
  // inline. Frames are only *collected* under batch_mu_ — the blocking
  // socket write (and BreakConnection, which runs user receipt callbacks)
  // must happen after the unlock, or a stalled send would wedge every
  // concurrent Submit and a callback that re-enters this client would
  // self-deadlock.
  std::string to_send[2];
  size_t n_send = 0;
  bool notify = false;
  {
    std::lock_guard<std::mutex> lk(batch_mu_);
    // Never let a batch outgrow one frame: ship what's buffered first.
    if (!batch_buf_.empty() &&
        4 + batch_buf_.size() + payload.size() > max_frame_payload_) {
      std::string buf;
      buf.swap(batch_buf_);
      to_send[n_send++] = SealBatchPayload(batch_count_, buf);
      batch_count_ = 0;
    }
    batch_buf_.append(payload);
    batch_count_++;
    if (batch_count_ == 1) {
      batch_oldest_us_ = now;
      notify = true;  // arm the flusher's delay bound
    }
    if (batch_count_ >= batch_max_txns_) {
      std::string buf;
      buf.swap(batch_buf_);
      to_send[n_send++] = SealBatchPayload(batch_count_, buf);
      batch_count_ = 0;
      notify = false;
    }
  }
  if (notify) batch_cv_.notify_one();
  for (size_t i = 0; i < n_send; i++) {
    if (Status s = WriteFrame(Opcode::kOpBatchSubmit, to_send[i]); !s.ok()) {
      // The write failed mid-connection: everything in flight (this submit
      // included) is now fate-unknown.
      BreakConnection(s);
      break;
    }
  }
  return TxnTicket(std::move(entry), req.client_id, seq);
}

void NetClient::FlushBatch() {
  std::string payload;
  {
    std::lock_guard<std::mutex> lk(batch_mu_);
    if (batch_count_ == 0) return;
    std::string buf;
    buf.swap(batch_buf_);
    payload = SealBatchPayload(batch_count_, buf);
    batch_count_ = 0;
  }
  if (Status s = WriteFrame(Opcode::kOpBatchSubmit, payload); !s.ok()) {
    BreakConnection(s);
  }
}

void NetClient::FlusherLoop() {
  std::unique_lock<std::mutex> lk(batch_mu_);
  while (!flusher_stop_) {
    if (batch_count_ == 0) {
      batch_cv_.wait(lk);
      continue;
    }
    const uint64_t now = NowMicros();
    const uint64_t deadline = batch_oldest_us_ + batch_max_delay_us_;
    if (now < deadline) {
      batch_cv_.wait_for(lk, std::chrono::microseconds(deadline - now));
      continue;
    }
    // Delay bound hit: ship the partial batch.
    std::string buf;
    buf.swap(batch_buf_);
    const std::string payload = SealBatchPayload(batch_count_, buf);
    batch_count_ = 0;
    lk.unlock();
    if (Status s = WriteFrame(Opcode::kOpBatchSubmit, payload); !s.ok()) {
      BreakConnection(s);
      return;
    }
    lk.lock();
  }
}

Result<std::string> NetClient::Call(Opcode op, std::string_view payload,
                                    uint64_t timeout_us) {
  // Ship buffered submits first: SYNC's watermark must cover them, and a
  // snapshot should reflect them.
  FlushBatch();
  uint16_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_.load(std::memory_order_acquire)) return broken_why_;
    // Ids are 1..65535; one still reserved (in flight or abandoned) is
    // skipped.
    for (uint32_t tries = 0;; tries++) {
      if (tries == 0xffff) return Status::Busy("no free request id");
      if (++next_call_id_ == 0) next_call_id_ = 1;
      if (calls_.try_emplace(next_call_id_).second) break;
    }
    id = next_call_id_;
  }
  if (Status s = WriteFrame(op, payload, id); !s.ok()) {
    BreakConnection(s);  // a half-written frame desynchronizes the stream
    return s;
  }
  std::unique_lock<std::mutex> lk(mu_);
  // Only this caller erases its slot (or the reader, once it is abandoned),
  // so the reference stays valid for the whole wait.
  CallSlot& slot = calls_.at(id);
  cv_.wait_for(lk, std::chrono::microseconds(timeout_us), [&] {
    return broken_.load(std::memory_order_acquire) || slot.replied;
  });
  if (slot.replied) {
    std::string reply = std::move(slot.reply);
    calls_.erase(id);
    return reply;
  }
  if (broken_.load(std::memory_order_acquire)) {
    calls_.erase(id);
    return broken_why_;
  }
  // The reply may still arrive; the reader frees the id when it does.
  slot.abandoned = true;
  return Status::Busy(std::string(OpcodeName(op)) + " timed out");
}

Status NetClient::BadReply(Opcode op) {
  const Status s =
      Status::Corruption(std::string("bad ") + OpcodeName(op) + " payload");
  BreakConnection(s);
  return s;
}

bool NetClient::Sync(uint64_t timeout_us) {
  auto reply = Call(Opcode::kOpSync, {}, timeout_us);
  if (!reply.ok()) return false;
  if (!reply->empty()) {
    BadReply(Opcode::kOpSync);
    return false;
  }
  return true;
}

Result<obs::MetricsSnapshot> NetClient::Metrics(uint64_t timeout_us) {
  auto reply = Call(Opcode::kOpMetrics, {}, timeout_us);
  if (!reply.ok()) return reply.status();
  obs::MetricsSnapshot m;
  if (!DecodeMetrics(*reply, &m)) return BadReply(Opcode::kOpMetrics);
  return m;
}

Result<WireHealth> NetClient::Health(uint64_t timeout_us) {
  auto reply = Call(Opcode::kOpHealth, {}, timeout_us);
  if (!reply.ok()) return reply.status();
  WireHealth h;
  if (!DecodeHealth(*reply, &h)) return BadReply(Opcode::kOpHealth);
  return h;
}

Result<NetClient::EventsBatch> NetClient::Events(uint64_t cursor,
                                                 uint64_t timeout_us) {
  std::string req;
  EncodeEventsReq(cursor, &req);
  auto reply = Call(Opcode::kOpEvents, req, timeout_us);
  if (!reply.ok()) return reply.status();
  EventsBatch b;
  if (!DecodeEvents(*reply, &b.next_cursor, &b.events)) {
    return BadReply(Opcode::kOpEvents);
  }
  return b;
}

Status NetClient::WriteFrame(Opcode op, std::string_view payload,
                             uint16_t request_id) {
  const std::string frame = EncodeFrame(op, payload, request_id);
  std::lock_guard<std::mutex> lk(write_mu_);
  return SendAll(fd_, frame);
}

void NetClient::ResolveSeq(uint64_t client_seq, const TxnReceipt& receipt) {
  PendingEntry pe;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = pending_.find(client_seq);
    if (it == pending_.end()) return;  // late/unknown receipt
    pe = std::move(it->second);
    pending_.erase(it);
  }
  TxnReceipt r = receipt;
  // Rewrite latency to the wire round trip this client experienced; the
  // server-side commit latency is a subset of it and lives on the server.
  const uint64_t now = NowMicros();
  r.latency_us = now > pe.send_time_us ? now - pe.send_time_us : 0;
  pe.entry->Resolve(std::move(r));
}

void NetClient::ReaderLoop() {
  FrameReassembler reasm(max_frame_payload_);
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      BreakConnection(Status::Aborted("server closed the connection"));
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      BreakConnection(
          Status::IOError(std::string("read: ") + strerror(errno)));
      return;
    }
    reasm.Feed(buf, static_cast<size_t>(n));
    for (;;) {
      Frame frame;
      const Status st = reasm.Next(&frame);
      if (st.IsNotFound()) break;
      if (!st.ok()) {
        BreakConnection(st);
        return;
      }
      switch (frame.opcode) {
        case Opcode::kOpBatchReceipt: {
          std::vector<TxnReceipt> rs;
          if (!DecodeBatchReceipt(frame.payload, &rs)) {
            BreakConnection(Status::Corruption("bad BATCH_RECEIPT payload"));
            return;
          }
          // Per-txn fan-out; Busy rejections arrive as kRejected entries.
          for (TxnReceipt& r : rs) ResolveSeq(r.client_seq, r);
          break;
        }
        case Opcode::kOpError: {
          WireError e;
          if (!DecodeError(frame.payload, &e)) {
            BreakConnection(Status::Corruption("bad ERROR payload"));
            return;
          }
          // The server is about to close on us.
          BreakConnection(WireStatus(e.code, std::move(e.message)));
          return;
        }
        case Opcode::kOpSync:
        case Opcode::kOpMetrics:
        case Opcode::kOpHealth:
        case Opcode::kOpEvents: {
          bool known = false;
          {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = calls_.find(frame.request_id);
            known = it != calls_.end() && !it->second.replied;
            if (known && it->second.abandoned) {
              calls_.erase(it);  // its caller timed out; the id is free again
            } else if (known) {
              it->second.reply = std::move(frame.payload);
              it->second.replied = true;
            }
          }
          if (!known) {
            BreakConnection(
                Status::Corruption("reply to an unknown request id"));
            return;
          }
          cv_.notify_all();
          break;
        }
        case Opcode::kOpBatchSubmit:
        case Opcode::kOpReplJoin:
        case Opcode::kOpReplicate:
        case Opcode::kOpReplicateAck:
        case Opcode::kOpReplSnapshot:
        case Opcode::kOpReplContext:
          // Client-only requests and replication-plane frames have no
          // business arriving on a client connection.
          BreakConnection(
              Status::Corruption("server sent a client-only opcode"));
          return;
      }
    }
  }
}

void NetClient::BreakConnection(const Status& why) {
  std::unordered_map<uint64_t, PendingEntry> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_.exchange(true, std::memory_order_acq_rel)) return;
    broken_why_ = why.ok() ? Status::Aborted("connection closed") : why;
    doomed.swap(pending_);
  }
  cv_.notify_all();
  // Wake the reader if it is parked in read(); also flushes the peer.
  ::shutdown(fd_, SHUT_RDWR);
  const uint64_t now = NowMicros();
  for (auto& [seq, pe] : doomed) {
    // Same contract as Recover()/shutdown in-process: dropped means "fate
    // unknown to this client", not "guaranteed not applied".
    TxnReceipt r;
    r.outcome = ReceiptOutcome::kDropped;
    r.status = broken_why_;
    r.client_seq = seq;
    r.latency_us = now > pe.send_time_us ? now - pe.send_time_us : 0;
    pe.entry->Resolve(std::move(r));
  }
}

}  // namespace net
}  // namespace harmony
