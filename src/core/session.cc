#include "core/session.h"

#include "core/harmonybc.h"

namespace harmony {

void Session::StampIdentity(TxnRequest* req) {
  req->client_id = client_id_;
  if (req->client_seq == 0) {
    req->client_seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    return;
  }
  // Caller-assigned seq: advance the auto counter past it so a later
  // auto-assigned seq cannot collide and bounce as a duplicate.
  uint64_t cur = next_seq_.load(std::memory_order_relaxed);
  while (cur < req->client_seq &&
         !next_seq_.compare_exchange_weak(cur, req->client_seq,
                                          std::memory_order_relaxed)) {
  }
}

TxnTicket Session::Submit(TxnRequest req, ReceiptCallback cb) {
  std::vector<TxnRequest> one;
  one.push_back(std::move(req));
  return std::move(SubmitBatch(std::move(one), std::move(cb)).front());
}

std::vector<TxnTicket> Session::SubmitBatch(std::vector<TxnRequest> reqs,
                                            ReceiptCallback cb) {
  for (TxnRequest& req : reqs) StampIdentity(&req);
  return db_->SubmitBatchWithReceipt(std::move(reqs), cb, stats_);
}

}  // namespace harmony
