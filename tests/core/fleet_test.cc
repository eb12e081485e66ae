// Multi-tenant subsystem (core/daemon/tenant.h + core/fleet): quota
// negotiation and capacity accounting, strict-priority/WFQ admission order,
// token-bucket pacing, bounded-queue Backpressure absorbed by client retry,
// the v5 tenant-field wire roundtrip, and online repacking running under
// live admitted traffic without corrupting the image.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/fsck.h"
#include "core/daemon/repacker.h"
#include "core/daemon/tenant.h"
#include "core/fleet/fleet_gen.h"
#include "core/protocol.h"
#include "common/strformat.h"
#include "dnn/model.h"
#include "net/cluster.h"
#include "sim/trace.h"

namespace portus::core {
namespace {

// --- TenantRegistry: negotiation + capacity accounting -----------------------

TEST(TenantRegistryTest, QuotaNegotiationClampsAgainstPolicyCeiling) {
  TenantRegistry::Defaults def;
  def.quota.capacity_bytes = 1_GiB;
  def.quota.rate_bytes_per_sec = 100_MB;
  TenantRegistry reg{def};

  // A zero request takes the policy default outright.
  Tenant& a = reg.admit_tenant("a", PriorityClass::kNormal, 0, 0);
  EXPECT_EQ(a.quota.capacity_bytes, 1_GiB);
  EXPECT_EQ(a.quota.rate_bytes_per_sec, 100_MB);
  EXPECT_EQ(a.quota.priority, PriorityClass::kNormal);

  // Over-asking clamps to the ceiling; modest requests are granted as-is.
  Tenant& b = reg.admit_tenant("b", PriorityClass::kHigh, 8_GiB, 1_GB);
  EXPECT_EQ(b.quota.capacity_bytes, 1_GiB);
  EXPECT_EQ(b.quota.rate_bytes_per_sec, 100_MB);
  Tenant& c = reg.admit_tenant("c", PriorityClass::kBatch, 256_MiB, 10_MB);
  EXPECT_EQ(c.quota.capacity_bytes, 256_MiB);
  EXPECT_EQ(c.quota.rate_bytes_per_sec, 10_MB);

  // Re-registration renegotiates the same tenant in place.
  Tenant& c2 = reg.admit_tenant("c", PriorityClass::kHigh, 512_MiB, 0);
  EXPECT_EQ(&c2, &c);
  EXPECT_EQ(c2.quota.capacity_bytes, 512_MiB);
  EXPECT_EQ(c2.quota.priority, PriorityClass::kHigh);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(TenantRegistryTest, CapacityOverdraftRejectsAndUnchargeRefunds) {
  TenantRegistry::Defaults def;
  def.quota.capacity_bytes = 100_MiB;
  TenantRegistry reg{def};
  Tenant& t = reg.admit_tenant("t", PriorityClass::kNormal, 0, 0);

  reg.charge(t, "m1", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB);
  // Charging the same model again is idempotent, not a double bill.
  reg.charge(t, "m1", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB);
  EXPECT_EQ(reg.owner_of("m1"), &t);

  EXPECT_THROW(reg.charge(t, "m2", 60_MiB), ResourceExhausted);
  EXPECT_EQ(t.usage.quota_rejects, 1u);
  EXPECT_EQ(t.usage.charged_bytes, 60_MiB) << "rejected charge must not bill";

  reg.charge(t, "m3", 30_MiB);
  reg.uncharge("m1");
  EXPECT_EQ(t.usage.charged_bytes, 30_MiB);
  EXPECT_EQ(reg.owner_of("m1"), nullptr);
  // The refunded headroom admits the previously rejected registration.
  reg.charge(t, "m2", 60_MiB);
  EXPECT_EQ(t.usage.charged_bytes, 90_MiB);
}

// --- AdmissionController: strict priority, WFQ, pacing, backpressure ---------

sim::Process hold_then_release(sim::Engine& eng, AdmissionController& ctrl, Tenant& t,
                               Duration hold) {
  auto ticket = co_await ctrl.admit(t, 0);
  co_await eng.sleep(hold);
}

sim::Process admit_and_record(AdmissionController& ctrl, Tenant& t, Bytes bytes,
                              std::vector<std::string>& order, std::string name) {
  auto ticket = co_await ctrl.admit(t, bytes);
  order.push_back(std::move(name));
}

TEST(AdmissionControllerTest, StrictPriorityAcrossClasses) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 16}};
    TenantRegistry reg;
    Tenant& hi = reg.admit_tenant("hi", PriorityClass::kHigh, 0, 0);
    Tenant& no = reg.admit_tenant("no", PriorityClass::kNormal, 0, 0);
    Tenant& ba = reg.admit_tenant("ba", PriorityClass::kBatch, 0, 0);
    Tenant& holder = reg.admit_tenant("holder", PriorityClass::kBatch, 0, 0);

    std::vector<std::string> order;
    // The single slot is held; waiters enqueue in *reverse* priority order,
    // so FIFO dispatch would grant batch first. Strict priority must not.
    eng.spawn(hold_then_release(eng, ctrl, holder, Duration{1'000'000}));
    eng.spawn(admit_and_record(ctrl, ba, 1_MiB, order, "batch"));
    eng.spawn(admit_and_record(ctrl, no, 1_MiB, order, "normal"));
    eng.spawn(admit_and_record(ctrl, hi, 1_MiB, order, "high"));
    eng.run();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "high");
    EXPECT_EQ(order[1], "normal");
    EXPECT_EQ(order[2], "batch");
    EXPECT_EQ(ctrl.stats().admitted, 4u);
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, WeightedFairQueuingWithinClass) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 16}};
    TenantRegistry reg;
    Tenant& a = reg.admit_tenant("a", PriorityClass::kNormal, 0, 0);
    Tenant& b = reg.admit_tenant("b", PriorityClass::kNormal, 0, 0);
    Tenant& holder = reg.admit_tenant("holder", PriorityClass::kNormal, 0, 0);
    b.quota.share = 2.0;  // b pays half the virtual time per byte

    std::vector<std::string> order;
    // Equal bytes, queued a1 a2 b1 b2. Start-time-fair tags: a1=1.0 a2=2.0,
    // b1=0.5 b2=1.0 (weighted). WFQ order interleaves b1 a1 b2 a2 — plain
    // FIFO (a1 a2 b1 b2) would let a's backlog starve the weighted tenant.
    eng.spawn(hold_then_release(eng, ctrl, holder, Duration{1'000'000}));
    eng.spawn(admit_and_record(ctrl, a, 1_MiB, order, "a1"));
    eng.spawn(admit_and_record(ctrl, a, 1_MiB, order, "a2"));
    eng.spawn(admit_and_record(ctrl, b, 1_MiB, order, "b1"));
    eng.spawn(admit_and_record(ctrl, b, 1_MiB, order, "b2"));
    eng.run();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "b1");
    EXPECT_EQ(order[1], "a1");
    EXPECT_EQ(order[2], "b2");
    EXPECT_EQ(order[3], "a2");
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, TokenBucketPacesOverRateTenant) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 4, .queue_depth = 16}};
    TenantRegistry::Defaults def;
    def.quota.rate_bytes_per_sec = 100_MB;
    TenantRegistry reg{def};
    Tenant& t = reg.admit_tenant("paced", PriorityClass::kNormal, 0, 0);

    std::vector<Time> at;
    eng.spawn([](sim::Engine& eng, AdmissionController& ctrl, Tenant& t,
                 std::vector<Time>& at) -> sim::Process {
      for (int i = 0; i < 3; ++i) {
        auto ticket = co_await ctrl.admit(t, 50_MB);
        at.push_back(eng.now());
      }
    }(eng, ctrl, t, at));
    eng.run();

    // 50 MB per op at 100 MB/s: each op after the burst allowance sleeps
    // off ~0.5 s of token debt before competing for a slot.
    ASSERT_EQ(at.size(), 3u);
    EXPECT_GE((at[2] - at[1]).count(), 400'000'000ll);
    EXPECT_GT(ctrl.stats().paced, 0u);
    EXPECT_GT(t.usage.paced_total.count(), 0ll);
  }
  eng.shutdown();
}

TEST(AdmissionControllerTest, BoundedQueueThrowsBackpressure) {
  sim::Engine eng;
  {
    AdmissionController ctrl{eng, {.max_inflight = 1, .queue_depth = 2}};
    TenantRegistry reg;
    Tenant& t = reg.admit_tenant("t", PriorityClass::kBatch, 0, 0);

    int rejected = 0;
    int admitted = 0;
    eng.spawn(hold_then_release(eng, ctrl, t, Duration{1'000'000}));
    for (int i = 0; i < 6; ++i) {
      eng.spawn([](AdmissionController& ctrl, Tenant& t, int& admitted,
                   int& rejected) -> sim::Process {
        try {
          auto ticket = co_await ctrl.admit(t, 1_KiB);
          ++admitted;
        } catch (const Backpressure&) {
          ++rejected;
        }
      }(ctrl, t, admitted, rejected));
    }
    eng.run();

    // One slot busy, two queue positions: the rest bounce immediately.
    EXPECT_EQ(admitted, 2);
    EXPECT_EQ(rejected, 4);
    EXPECT_EQ(ctrl.stats().rejected, 4u);
    EXPECT_EQ(t.usage.rejected, 4u);
  }
  eng.shutdown();
}

// --- protocol v5: tenant negotiation on the wire ------------------------------

TEST(FleetProtocolTest, V5TenantFieldsRoundtrip) {
  RegisterModelMsg m;
  m.model_name = "gpt";
  m.qp_tokens = {1};
  m.tenant_id = "team-inference";
  m.priority = static_cast<std::uint8_t>(PriorityClass::kHigh);
  m.requested_capacity = 3_GiB;
  m.requested_rate = 250_MB;
  const auto d = decode_register_model(encode(m));
  EXPECT_EQ(d.tenant_id, "team-inference");
  EXPECT_EQ(priority_from_wire(d.priority), PriorityClass::kHigh);
  EXPECT_EQ(d.requested_capacity, 3_GiB);
  EXPECT_EQ(d.requested_rate, 250_MB);

  RegisterAckMsg ack;
  ack.ok = true;
  ack.granted_capacity = 1_GiB;
  ack.granted_rate = 100_MB;
  ack.granted_wr_slots = 3;
  const auto dack = decode_register_ack(encode(ack));
  EXPECT_EQ(dack.granted_capacity, 1_GiB);
  EXPECT_EQ(dack.granted_rate, 100_MB);
  EXPECT_EQ(dack.granted_wr_slots, 3u);

  CheckpointDoneMsg done;
  done.model_name = "gpt";
  done.ok = false;
  done.backpressure = true;
  done.retry_after_ns = 2'000'000;
  const auto ddone = decode_checkpoint_done(encode(done));
  EXPECT_FALSE(ddone.ok);
  EXPECT_TRUE(ddone.backpressure);
  EXPECT_EQ(ddone.retry_after_ns, 2'000'000u);

  // An out-of-range priority demotes to batch instead of faulting.
  EXPECT_EQ(priority_from_wire(7), PriorityClass::kBatch);
}

// --- end to end: Backpressure absorbed by client retry ------------------------

struct TenancyRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon;

  // `devdax` > 0 swaps the paper testbed for a client and a server whose
  // devdax namespace has that size.
  explicit TenancyRig(PortusDaemon::Config cfg = tenancy_config(), Bytes devdax = 0)
      : cluster{devdax == 0 ? net::Cluster::paper_testbed(eng)
                            : net::Cluster::Builder{}
                                  .add_node({.name = "client-volta", .gpu_count = 1})
                                  .add_node({.name = "server", .pmem_devdax = devdax})
                                  .build(eng)} {
    daemon = std::make_unique<PortusDaemon>(*cluster, cluster->node("server"),
                                            rendezvous, cfg);
    daemon->start();
  }
  ~TenancyRig() { eng.shutdown(); }

  static PortusDaemon::Config tenancy_config() {
    PortusDaemon::Config cfg;
    cfg.tenancy = true;
    cfg.admission_inflight = 1;
    cfg.admission_queue_depth = 1;
    return cfg;
  }
};

// Two checkpoints arrive at once for one admission slot: the one that
// queues for its ticket shows on the daemon's trace track as an
// "admit <key>" span exactly as long as the queue wait the controller
// counts, and the one admitted at once records none.
TEST(FleetTest, QueuedAdmissionIsTracedAsAnAdmitSpan) {
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  sim::Tracer tracer{eng};
  auto cfg = TenancyRig::tenancy_config();
  cfg.tracer = &tracer;
  PortusDaemon daemon{*cluster, cluster->node("server"), rendezvous, cfg};
  daemon.start();
  auto& volta = cluster->node("client-volta");
  std::vector<std::unique_ptr<dnn::Model>> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  for (int i = 0; i < 2; ++i) {
    models.push_back(std::make_unique<dnn::Model>(strf("job{}", i), volta.gpu(0)));
    models.back()->add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}},
                              /*phantom=*/true);
    clients.push_back(std::make_unique<PortusClient>(*cluster, volta, volta.gpu(0),
                                                     rendezvous));
    clients.back()->set_tenant(PortusClient::TenantSpec{.id = strf("tenant{}", i)});
  }
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
    }(*clients[i], *models[i]));
  }
  eng.run();
  ASSERT_EQ(eng.failed_process_count(), 0);

  const auto waited_before = daemon.admission()->stats().queue_wait_total;
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.checkpoint(m, 1);
    }(*clients[i], *models[i]));
  }
  eng.run();
  ASSERT_EQ(eng.failed_process_count(), 0);
  const auto waited = daemon.admission()->stats().queue_wait_total - waited_before;
  EXPECT_GT(waited.count(), 0);

  std::ostringstream json;
  tracer.write_chrome_json(json);
  const std::regex admit{
      R"re("name":"(admit [^"]*)","ph":"X","pid":1,"tid":\d+,"ts":[0-9.]+,"dur":([0-9.]+))re"};
  std::vector<std::pair<std::string, std::int64_t>> spans;
  const auto text = json.str();
  for (std::sregex_iterator it{text.begin(), text.end(), admit}, end; it != end; ++it) {
    spans.emplace_back((*it)[1], std::llround(std::stod((*it)[2]) * 1e3));
  }
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].first == "admit job0" || spans[0].first == "admit job1")
      << spans[0].first;
  EXPECT_EQ(spans[0].second, waited.count());
}

TEST(FleetTest, BackpressureRetriesToSuccess) {
  TenancyRig r;
  auto& volta = r.cluster->node("client-volta");

  // Eight clients storm one admission slot with one queue position: most
  // first attempts bounce with Backpressure, every op must still succeed
  // within its jittered-backoff retry budget.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<dnn::Model>> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto model = std::make_unique<dnn::Model>(strf("job{}", i), volta.gpu(0));
    model->add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
    auto client = std::make_unique<PortusClient>(*r.cluster, volta, volta.gpu(0),
                                                 r.rendezvous);
    client->set_tenant(PortusClient::TenantSpec{
        .id = strf("tenant{}", i),
        .priority = static_cast<std::uint8_t>(PriorityClass::kBatch)});
    client->set_retry_policy(PortusClient::RetryPolicy{
        .max_retries = 30, .jitter_seed = 0xF1EE7000ull + static_cast<std::uint64_t>(i)});
    models.push_back(std::move(model));
    clients.push_back(std::move(client));
  }

  std::vector<sim::Process> procs;
  for (int i = 0; i < kClients; ++i) {
    procs.push_back(r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      for (std::uint64_t k = 1; k <= 3; ++k) {
        const auto epoch = co_await c.checkpoint(m, k);
        if (epoch != k) throw Error("unexpected epoch");
      }
    }(*clients[i], *models[i])));
  }
  r.eng.run();
  for (auto& p : procs) p.check();

  std::uint64_t retries = 0;
  std::uint64_t backpressure = 0;
  for (const auto& c : clients) {
    retries += c->stats().retries;
    backpressure += c->stats().backpressure;
    EXPECT_EQ(c->stats().checkpoints, 3u);
  }
  EXPECT_GT(backpressure, 0u) << "the storm never hit the bounded queue";
  EXPECT_EQ(retries, backpressure);
  EXPECT_EQ(r.daemon->stats().backpressure_rejects, backpressure);
  EXPECT_GT(r.daemon->stats().checkpoints, 0u);
  EXPECT_EQ(r.daemon->stats().failed_ops, 0u);

  // The registry saw every tenant; the grant echoed the daemon's policy.
  ASSERT_NE(r.daemon->tenants(), nullptr);
  EXPECT_EQ(r.daemon->tenants()->size(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(clients[0]->stats().granted_wr_slots, 1u);
}

// --- every charge goes back whole ---------------------------------------------

dnn::TensorMeta f32(std::string name, Bytes bytes) {
  return dnn::TensorMeta{.name = std::move(name),
                         .dtype = dnn::DType::kF32,
                         .shape = {static_cast<std::int64_t>(bytes / 4)}};
}

TEST(FleetTest, RegistrationOutOfHeapRefundsPmemAndCharge) {
  TenancyRig r{TenancyRig::tenancy_config(), 8_MiB};
  auto& volta = r.cluster->node("client-volta");
  // The 7 MiB heap fits big's record and one 4 MiB slot, not the second.
  dnn::Model big{"big", volta.gpu(0)};
  big.add_tensor(f32("w", 4_MiB), /*phantom=*/true);
  dnn::Model small{"small", volta.gpu(0)};
  small.add_tensor(f32("w", 2_MiB), /*phantom=*/true);
  const Bytes live = r.daemon->allocator().live_bytes();

  const auto attempt = [&r, &volta](dnn::Model& model) {
    PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
    std::string error;
    auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m, std::string& out) -> sim::Process {
      co_await c.connect();
      try {
        co_await c.register_model(m);
      } catch (const Error& e) {
        out = e.what();
      }
    }(client, model, error));
    r.eng.run();
    proc.check();
    return error;
  };

  const auto error = attempt(big);
  EXPECT_NE(error.find("PMEM heap exhausted"), std::string::npos) << error;
  EXPECT_EQ(r.daemon->allocator().live_bytes(), live);
  EXPECT_EQ(r.daemon->model_table().size(), 0u);
  const Tenant* tenant = r.daemon->tenants()->find("default");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->usage.charged_bytes, 0u);
  EXPECT_EQ(tenant->usage.models, 0u);
  EXPECT_EQ(r.daemon->tenants()->owner_of("big"), nullptr);

  // What big held is free again, so a model the heap does fit registers.
  EXPECT_EQ(attempt(small), "");
  EXPECT_EQ(tenant->usage.charged_bytes, 4_MiB);
  EXPECT_EQ(r.daemon->tenants()->owner_of("small"), tenant);
}

TEST(FleetTest, ReclaimedModelRefundsExactlyItsCharge) {
  TenancyRig r;
  auto& volta = r.cluster->node("client-volta");
  // a is charged 2 x 20,000 B but its 5,000 B tensors start on 256 B lines,
  // so each of its slots spans 20,480 B.
  dnn::Model a{"a", volta.gpu(0)};
  for (int t = 0; t < 4; ++t) a.add_tensor(f32(strf("w{}", t), 5'000), /*phantom=*/true);
  dnn::Model b{"b", volta.gpu(0)};
  b.add_tensor(f32("w", 1_MiB), /*phantom=*/true);
  PortusClient client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  PortusClient::TenantSpec spec;
  spec.id = "t";
  client.set_tenant(spec);
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& a, dnn::Model& b) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(a);
    co_await c.register_model(b);
    co_await c.finish(a);  // never checkpointed: both of its slots are garbage
  }(client, a, b));
  r.eng.run();
  proc.check();
  const Tenant* tenant = r.daemon->tenants()->find("t");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->usage.charged_bytes, 2 * 20'000 + 2 * 1_MiB);

  const auto report = Repacker{*r.daemon}.repack();
  EXPECT_EQ(report.slots_cleared, 2);
  EXPECT_EQ(tenant->usage.charged_bytes, 2 * 1_MiB) << "b's charge must be untouched";
  EXPECT_EQ(tenant->usage.models, 1u);
  EXPECT_EQ(r.daemon->tenants()->owner_of("a"), nullptr);
  EXPECT_EQ(r.daemon->tenants()->owner_of("b"), tenant);
}

// --- online repack under live admitted traffic --------------------------------

TEST(FleetTest, OnlineRepackUnderLiveTrafficLeavesCleanImage) {
  TenancyRig r;
  auto& volta = r.cluster->node("client-volta");

  // Garbage: a finished job whose slots become reclaimable.
  dnn::Model dead{"dead", volta.gpu(0)};
  dead.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
  PortusClient dead_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  // Live traffic, admitted through the controller while repack_online takes
  // its bounded pause windows.
  dnn::Model live{"live", volta.gpu(0)};
  live.add_tensor(dnn::TensorMeta{.name = "w", .shape = {1 << 20}}, /*phantom=*/true);
  PortusClient live_client{*r.cluster, volta, volta.gpu(0), r.rendezvous};
  live_client.set_retry_policy(PortusClient::RetryPolicy{.max_retries = 20});

  Repacker::Report report;
  auto proc = r.eng.spawn([](TenancyRig& r, PortusClient& dc, dnn::Model& dead,
                             PortusClient& lc, dnn::Model& live,
                             Repacker::Report& report) -> sim::Process {
    co_await dc.connect();
    co_await dc.register_model(dead);
    co_await dc.checkpoint(dead, 1);
    co_await dc.checkpoint(dead, 2);
    co_await dc.finish(dead);

    co_await lc.connect();
    co_await lc.register_model(live);
    auto maint = r.eng.spawn(
        [](PortusDaemon& d, Repacker::Report& out) -> sim::Process {
          Repacker repacker{d};
          out = co_await repacker.repack_online(1);
        }(*r.daemon, report));
    for (std::uint64_t k = 1; k <= 6; ++k) {
      const auto epoch = co_await lc.checkpoint(live, k);
      if (epoch != k) throw Error("live checkpoint lost an epoch");
    }
    co_await maint.join();
  }(r, dead_client, dead, live_client, live, report));
  r.eng.run();
  proc.check();

  // The finished job's storage was reclaimed in bounded pause windows...
  EXPECT_GT(report.freed_outdated + report.freed_crashed, 0u);
  EXPECT_GT(report.passes, 0);
  EXPECT_GT(report.paused_time.count(), 0ll);
  EXPECT_FALSE(r.daemon->admission()->paused()) << "repack left admissions paused";
  EXPECT_GT(r.daemon->admission()->stats().pauses, 0u);

  // ...the live job never lost an epoch, and the image is fsck-clean.
  const auto idx = r.daemon->load_index("live");
  const auto slot = idx.latest_done_slot();
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(idx.slot(*slot).epoch, 6u);
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/true).clean());
}

// --- fleet generator smoke ----------------------------------------------------

TEST(FleetTest, FleetGenReportsPerClassLatencies) {
  TenancyRig r{[] {
    auto cfg = TenancyRig::tenancy_config();
    cfg.admission_queue_depth = 8;
    return cfg;
  }()};
  core::fleet::FleetConfig fc;
  fc.tenants = 9;
  fc.checkpoints_per_tenant = 2;
  fc.high_fraction = 0.34;
  fc.batch_fraction = 0.33;
  fc.high_period = Duration{50'000'000};
  fc.normal_period = Duration{20'000'000};
  fc.batch_period = Duration{5'000'000};
  core::fleet::FleetGen gen{*r.cluster, r.cluster->node("client-volta"), r.rendezvous,
                            {"portusd"}, fc};
  core::fleet::FleetReport rep;
  auto proc = r.eng.spawn([](core::fleet::FleetGen& g,
                             core::fleet::FleetReport& out) -> sim::Process {
    out = co_await g.run();
  }(gen, rep));
  r.eng.run();
  proc.check();

  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.checkpoints, 18u);
  int covered = 0;
  std::uint64_t sum = 0;
  for (int c = 0; c < kPriorityClasses; ++c) {
    if (rep.by_class[c].tenants == 0) continue;
    ++covered;
    sum += rep.by_class[c].checkpoints;
    EXPECT_GT(rep.by_class[c].p99.count(), 0ll);
    EXPECT_LE(rep.by_class[c].p50.count(), rep.by_class[c].p99.count());
    EXPECT_LE(rep.by_class[c].p99.count(), rep.by_class[c].max.count());
  }
  EXPECT_EQ(covered, 3) << "the mix must draw all three classes";
  EXPECT_EQ(sum, rep.checkpoints);
  EXPECT_GT(rep.bytes, 0u);
  EXPECT_GT(rep.aggregate_gbps(), 0.0);
}

}  // namespace
}  // namespace portus::core
