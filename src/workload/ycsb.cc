#include "workload/ycsb.h"

#include <cstring>
#include <string>
#include <vector>

#include "txn/txn_context.h"

namespace harmony {

namespace {

// Op codes inside the request's int args: [op_count, (code, key, val)*].
enum OpCode : int64_t { kSelect = 0, kUpdate = 1, kRmwUpdate = 2 };

Status YcsbTxn(TxnContext& ctx, const ProcArgs& args) {
  const int64_t n_ops = args.at(0);
  for (int64_t i = 0; i < n_ops; i++) {
    const int64_t code = args.at(1 + i * 3);
    const Key key = MakeKey(YcsbWorkload::kTable,
                            static_cast<uint64_t>(args.at(2 + i * 3)));
    const int64_t val = args.at(3 + i * 3);
    switch (code) {
      case kSelect: {
        Value v;
        // Reading a missing key is a deterministic no-op for YCSB.
        Status s = ctx.GetExisting(key, &v);
        if (!s.ok() && !s.IsNotFound()) return s;
        break;
      }
      case kUpdate:
        // Blind write: UPDATE t SET f = <val> WHERE k = <key>.
        ctx.SetField(key, 0, val);
        break;
      case kRmwUpdate:
        // Rewritten SELECT+UPDATE pair: UPDATE t SET f = f + <val> — an add
        // command, no separate read.
        ctx.AddField(key, 0, val);
        break;
      default:
        return Status::InvalidArgument("bad ycsb op");
    }
  }
  return Status::OK();
}

}  // namespace

Status YcsbWorkload::Setup(Replica& r) {
  r.RegisterProcedure(kProcTxn, "ycsb_txn", YcsbTxn);
  // Row k is Value({k}, filler): encode once, then patch field 0, which
  // follows the u16 field count (Value::Encode), and load it as a batch of
  // one.
  std::string row = Value({0}, std::string(cfg_.payload_bytes, 'y')).Encode();
  std::vector<KvRow> rows(1);
  for (uint64_t k = 0; k < cfg_.num_keys; k++) {
    const int64_t field = static_cast<int64_t>(k);
    std::memcpy(row.data() + 2, &field, sizeof(field));
    rows[0] = {MakeKey(kTable, k), row};
    HARMONY_RETURN_NOT_OK(r.LoadRows(rows));
  }
  return Status::OK();
}

TxnRequest YcsbWorkload::Next() {
  TxnRequest req;
  req.proc_id = kProcTxn;
  req.client_seq = ++seq_;
  req.args.ints.reserve(1 + cfg_.ops_per_txn * 3);
  req.args.ints.push_back(static_cast<int64_t>(cfg_.ops_per_txn));
  const uint64_t n_hot = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(cfg_.num_keys) *
                               cfg_.hotspot_ratio));
  for (size_t i = 0; i < cfg_.ops_per_txn; i++) {
    if (cfg_.hotspot_prob > 0 && rng_.Chance(cfg_.hotspot_prob)) {
      // Hotspot access, rewritten as one read-modify-write UPDATE.
      const uint64_t key = rng_.Uniform(n_hot);
      req.args.ints.push_back(kRmwUpdate);
      req.args.ints.push_back(static_cast<int64_t>(key));
      req.args.ints.push_back(rng_.UniformRange(1, 100));
    } else {
      const uint64_t key = zipf_.Next(rng_);
      const bool update = rng_.Chance(0.5);
      req.args.ints.push_back(update ? kUpdate : kSelect);
      req.args.ints.push_back(static_cast<int64_t>(key));
      req.args.ints.push_back(update ? rng_.UniformRange(1, 1000000) : 0);
    }
  }
  return req;
}

}  // namespace harmony
