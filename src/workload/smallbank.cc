#include "workload/smallbank.h"

#include "txn/txn_context.h"

namespace harmony {

namespace {

Key SavKey(int64_t a) {
  return MakeKey(SmallbankWorkload::kSavings, static_cast<uint64_t>(a));
}
Key ChkKey(int64_t a) {
  return MakeKey(SmallbankWorkload::kChecking, static_cast<uint64_t>(a));
}

/// Amalgamate(a, b): move all of a's funds into b's checking.
Status Amalgamate(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0), b = args.at(1);
  Value sav, chk;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(SavKey(a), &sav));
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(ChkKey(a), &chk));
  const int64_t total = sav.field(0) + chk.field(0);
  ctx.SetField(SavKey(a), 0, 0);
  ctx.SetField(ChkKey(a), 0, 0);
  ctx.AddField(ChkKey(b), 0, total);
  return Status::OK();
}

/// Balance(a): read-only sum of both accounts.
Status Balance(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0);
  Value sav, chk;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(SavKey(a), &sav));
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(ChkKey(a), &chk));
  return Status::OK();
}

/// DepositChecking(a, v): single-statement increment — a pure add command.
Status DepositChecking(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0), v = args.at(1);
  if (v < 0) return Status::Aborted("negative deposit");
  ctx.AddField(ChkKey(a), 0, v);
  return Status::OK();
}

/// SendPayment(a, b, v): branches on a's balance — no static analysis can
/// extract this write set.
Status SendPayment(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0), b = args.at(1), v = args.at(2);
  Value chk;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(ChkKey(a), &chk));
  if (chk.field(0) < v) return Status::Aborted("insufficient funds");
  ctx.AddField(ChkKey(a), 0, -v);
  ctx.AddField(ChkKey(b), 0, v);
  return Status::OK();
}

/// TransactSavings(a, v): apply delta unless it would go negative.
Status TransactSavings(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0), v = args.at(1);
  Value sav;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(SavKey(a), &sav));
  if (sav.field(0) + v < 0) return Status::Aborted("would overdraw savings");
  ctx.AddField(SavKey(a), 0, v);
  return Status::OK();
}

/// WriteCheck(a, v): overdraft penalty if the combined balance is short.
Status WriteCheck(TxnContext& ctx, const ProcArgs& args) {
  const int64_t a = args.at(0), v = args.at(1);
  Value sav, chk;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(SavKey(a), &sav));
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(ChkKey(a), &chk));
  if (sav.field(0) + chk.field(0) < v) {
    ctx.AddField(ChkKey(a), 0, -(v + 1));  // penalty
  } else {
    ctx.AddField(ChkKey(a), 0, -v);
  }
  return Status::OK();
}

}  // namespace

Status SmallbankWorkload::Setup(Replica& r) {
  r.RegisterProcedure(kProcAmalgamate, "amalgamate", Amalgamate);
  r.RegisterProcedure(kProcBalance, "balance", Balance);
  r.RegisterProcedure(kProcDepositChecking, "deposit_checking", DepositChecking);
  r.RegisterProcedure(kProcSendPayment, "send_payment", SendPayment);
  r.RegisterProcedure(kProcTransactSavings, "transact_savings", TransactSavings);
  r.RegisterProcedure(kProcWriteCheck, "write_check", WriteCheck);
  // Every account starts alike: encode its row once, and load every row,
  // pointing at it, in one batch.
  const std::string row =
      Value({cfg_.initial_balance}, std::string(cfg_.payload_bytes, 'b'))
          .Encode();
  std::vector<KvRow> rows;
  rows.reserve(2 * cfg_.num_accounts);
  for (uint64_t a = 0; a < cfg_.num_accounts; a++) {
    rows.push_back({SavKey(static_cast<int64_t>(a)), row});
    rows.push_back({ChkKey(static_cast<int64_t>(a)), row});
  }
  return r.LoadRows(rows);
}

TxnRequest SmallbankWorkload::Next() {
  TxnRequest req;
  req.client_seq = ++seq_;
  const int64_t a = static_cast<int64_t>(PickAccount());
  int64_t b = static_cast<int64_t>(PickAccount());
  if (b == a) b = (b + 1) % static_cast<int64_t>(cfg_.num_accounts);
  const uint64_t dice = rng_.Uniform(100);
  if (dice < 15) {
    req.proc_id = kProcAmalgamate;
    req.args.ints = {a, b};
  } else if (dice < 30) {
    req.proc_id = kProcBalance;
    req.args.ints = {a};
  } else if (dice < 45) {
    req.proc_id = kProcDepositChecking;
    req.args.ints = {a, rng_.UniformRange(1, 100)};
  } else if (dice < 70) {
    req.proc_id = kProcSendPayment;
    req.args.ints = {a, b, rng_.UniformRange(1, 100)};
  } else if (dice < 85) {
    req.proc_id = kProcTransactSavings;
    req.args.ints = {a, rng_.UniformRange(-100, 100)};
  } else {
    req.proc_id = kProcWriteCheck;
    req.args.ints = {a, rng_.UniformRange(1, 100)};
  }
  return req;
}

}  // namespace harmony
