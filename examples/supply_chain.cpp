// supply_chain: a consortium of manufacturers sharing an order/stock ledger
// — multi-table smart contracts with branching logic (the workload class the
// paper's intro motivates: SQL-style stored procedures as smart contracts).
//
// Tables: product stock per site, purchase orders, shipment records.
// Contracts: PlaceOrder (reserve stock or reject), Ship (move stock between
// sites), Restock (pure increment — Harmony coalesces concurrent restocks
// on the same SKU without aborts).
//
//   ./build/supply_chain [dir]
//
// `dir` must be empty or absent; without it the example wipes and reuses
// a directory under the system temp dir.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/harmonybc.h"

using namespace harmony;

namespace {

constexpr uint8_t kStock = 1;   // (site, sku) -> {quantity}
constexpr uint8_t kOrders = 2;  // order id  -> {sku, qty, site, state}
constexpr int64_t kStateOpen = 0, kStateShipped = 1;

Key StockKey(int64_t site, int64_t sku) {
  return MakeKey(kStock, static_cast<uint64_t>(site) << 32 |
                             static_cast<uint64_t>(sku));
}
Key OrderKey(int64_t id) { return MakeKey(kOrders, static_cast<uint64_t>(id)); }

/// PlaceOrder(order_id, site, sku, qty): reserve stock if available.
Status PlaceOrder(TxnContext& ctx, const ProcArgs& a) {
  const int64_t id = a.at(0), site = a.at(1), sku = a.at(2), qty = a.at(3);
  Value stock;
  HARMONY_RETURN_NOT_OK(ctx.GetExisting(StockKey(site, sku), &stock));
  if (stock.field(0) < qty) return Status::Aborted("out of stock");
  ctx.AddField(StockKey(site, sku), 0, -qty);
  ctx.Put(OrderKey(id), Value({sku, qty, site, kStateOpen}));
  return Status::OK();
}

/// Ship(order_id, dest_site): mark shipped, credit destination stock.
Status Ship(TxnContext& ctx, const ProcArgs& a) {
  const int64_t id = a.at(0), dest = a.at(1);
  Value order;
  Status s = ctx.GetExisting(OrderKey(id), &order);
  if (s.IsNotFound()) return Status::Aborted("no such order");
  HARMONY_RETURN_NOT_OK(s);
  if (order.field(3) != kStateOpen) return Status::Aborted("already shipped");
  ctx.SetField(OrderKey(id), 3, kStateShipped);
  ctx.AddField(StockKey(dest, order.field(0)), 0, order.field(1));
  return Status::OK();
}

/// Restock(site, sku, qty): a single-statement increment — reorderable and
/// coalescable, so concurrent restocks of a hot SKU never abort.
Status Restock(TxnContext& ctx, const ProcArgs& a) {
  ctx.AddField(StockKey(a.at(0), a.at(1)), 0, a.at(2));
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else {
    dir =
        (std::filesystem::temp_directory_path() / "harmonybc-supply").string();
    std::filesystem::remove_all(dir);
  }
  std::filesystem::create_directories(dir);

  HarmonyBC::Options opt;
  opt.dir = dir;
  opt.block_size = 16;
  auto db = HarmonyBC::Open(opt);
  if (!db.ok()) return 1;

  (*db)->RegisterProcedure(1, "place_order", PlaceOrder);
  (*db)->RegisterProcedure(2, "ship", Ship);
  (*db)->RegisterProcedure(3, "restock", Restock);

  // Genesis: 4 sites x 8 SKUs, 100 units each.
  const int kSites = 4, kSkus = 8;
  int64_t total_units = 0;
  for (int64_t site = 0; site < kSites; site++) {
    for (int64_t sku = 0; sku < kSkus; sku++) {
      if (!(*db)->Load(StockKey(site, sku), Value({100})).ok()) return 1;
      total_units += 100;
    }
  }
  if (!(*db)->Recover().ok()) return 1;

  // Submits one contract call; false when admission rejected it (such a
  // rejection resolves the ticket synchronously).
  auto session = (*db)->OpenSession();
  auto submit = [&](uint32_t proc, std::vector<int64_t> ints) {
    TxnRequest t;
    t.proc_id = proc;
    t.args.ints = std::move(ints);
    std::optional<TxnReceipt> r = session->Submit(std::move(t)).TryGet();
    return !(r && r->outcome == ReceiptOutcome::kRejected);
  };

  // A day of trading: each round places orders and restocks a hot SKU, then
  // settles (Sync) and ships the orders placed in the previous round (a
  // shipment must see the committed order on the ledger).
  int64_t next_order = 1;
  int64_t prev_round_first = 1;
  for (int round = 0; round < 10; round++) {
    const int64_t round_first = next_order;
    for (int i = 0; i < 6; i++) {
      if (!submit(1, {next_order++, i % kSites, (i * 3) % kSkus, 10}))
        return 1;
    }
    // Everyone restocks SKU 0 at site 0 at once (hotspot): pure commands.
    for (int i = 0; i < 6; i++) {
      if (!submit(3, {0, 0, 5})) return 1;
    }
    total_units += 6 * 5;
    // Ship last round's orders.
    for (int64_t o = prev_round_first; o < round_first; o++) {
      if (!submit(2, {o, (o + 1) % kSites})) return 1;
    }
    if (Status s = (*db)->Sync(); !s.ok()) {
      std::fprintf(stderr, "sync: %s\n", s.ToString().c_str());
      return 1;
    }
    prev_round_first = round_first;
  }
  if (Status s = (*db)->Sync(); !s.ok()) return 1;

  // Units are conserved: every unit is either in stock or inside an open
  // (reserved, unshipped) order.
  int64_t in_stock = 0, reserved = 0, shipped_orders = 0, open_orders = 0;
  for (int64_t site = 0; site < kSites; site++) {
    for (int64_t sku = 0; sku < kSkus; sku++) {
      std::optional<Value> v;
      if (!(*db)->Query(StockKey(site, sku), &v).ok() || !v) return 1;
      in_stock += v->field(0);
    }
  }
  for (int64_t o = 1; o < next_order; o++) {
    std::optional<Value> v;
    if (!(*db)->Query(OrderKey(o), &v).ok()) return 1;
    if (!v.has_value()) continue;  // order was rejected (logic abort)
    if (v->field(3) == kStateOpen) {
      reserved += v->field(1);
      open_orders++;
    } else {
      shipped_orders++;
    }
  }
  std::printf("chain height:   %llu\n",
              static_cast<unsigned long long>((*db)->height()));
  std::printf("in stock:       %lld units\n", static_cast<long long>(in_stock));
  std::printf("reserved:       %lld units in %lld open orders\n",
              static_cast<long long>(reserved),
              static_cast<long long>(open_orders));
  std::printf("shipped orders: %lld\n", static_cast<long long>(shipped_orders));
  std::printf("conservation:   %lld == %lld -> %s\n",
              static_cast<long long>(in_stock + reserved),
              static_cast<long long>(total_units),
              in_stock + reserved == total_units ? "ok" : "VIOLATED");
  if (in_stock + reserved != total_units) return 1;

  const auto& st = (*db)->stats();
  std::printf("cc aborts: %llu, logic rejects: %llu\n",
              static_cast<unsigned long long>(st.cc_aborted.load()),
              static_cast<unsigned long long>(st.logic_aborted.load()));
  return (*db)->AuditChain().ok() ? 0 : 1;
}
