// Multi-tenant fleet sweep (ISSUE 7 tentpole): hundreds of tenants, mixed
// priority classes and model sizes, Poisson checkpoint cadences, against a
// pool of tenancy-enabled daemons (strict priority + WFQ + token-bucket
// admission, bounded queues answering Backpressure that clients absorb
// with jittered exponential backoff).
//
// Part 1 — fleet scaling. Sweeps fleet size 1 -> 1000 tenants over four
// daemons and reports per-class p50/p99 checkpoint latency and aggregate
// GB/s. The batch tier is sized to saturate (small models, spammy cadence)
// while the high tier checkpoints deliberately — the sweep demonstrates
// that admission control keeps high-priority p99 near the 1-tenant value
// while batch soaks up Backpressure and retries.
//
// Part 2 — online repacking under live load. Seeds garbage (a finished
// fleet), then runs a live fleet with and without Repacker::repack_online
// sweeping concurrently in bounded admission-pause windows; live
// throughput must stay within 20% of the repack-free control.
//
// Emits BENCH_fleet.json; exits 1 unless high-class p99 at the gate count
// stays within 2x of the 1-tenant baseline, no client op fails after
// retries, and online repacking frees garbage while degrading live
// throughput < 20%. --smoke shrinks the sweep to {1, 8, 32} tenants with a
// tighter admission queue for the perf-smoke CI label.
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/daemon/repacker.h"
#include "core/fleet/fleet_gen.h"

using namespace portus;

namespace {

constexpr int kDaemons = 4;

struct FleetRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;
  std::vector<std::string> endpoints;

  explicit FleetRig(std::uint32_t queue_depth) {
    cluster = net::Cluster::sharded_testbed(eng, kDaemons);
    for (int i = 0; i < kDaemons; ++i) {
      core::PortusDaemon::Config cfg;
      cfg.workers = 8;
      cfg.model_table_capacity = 512;
      cfg.shards = 8;
      cfg.alloc_refill_bytes = 256_KiB;
      cfg.endpoint = strf("portusd{}", i);
      cfg.pipeline_window = 4;
      cfg.chunk_bytes = 4_MiB;
      cfg.tenancy = true;
      // One admission slot per daemon: in-service ops never share the PMEM
      // write stream, so a high-class op's latency is its own transfer plus
      // at most one in-service residual — the strongest priority isolation
      // this datapath can give.
      cfg.admission_inflight = 1;
      cfg.admission_queue_depth = queue_depth;
      daemons.push_back(std::make_unique<core::PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
      endpoints.push_back(cfg.endpoint);
    }
  }
  ~FleetRig() { eng.shutdown(); }

  void run(sim::Process p) {
    auto proc = eng.spawn(std::move(p));
    eng.run();
    proc.check();
  }
};

struct Row {
  int tenants = 0;
  core::fleet::FleetReport rep{};
  // Daemon-side aggregates across the pool.
  std::uint64_t daemon_backpressure = 0;
  std::uint64_t paced = 0;
};

void absorb_daemons(FleetRig& rig, Row& row) {
  for (const auto& d : rig.daemons) {
    row.daemon_backpressure += d->stats().backpressure_rejects;
    if (d->admission() != nullptr) row.paced += d->admission()->stats().paced;
  }
}

core::fleet::FleetConfig fleet_config(int tenants, bool smoke) {
  core::fleet::FleetConfig fc;
  fc.tenants = tenants;
  fc.checkpoints_per_tenant = smoke ? 3 : 4;
  // The saturation transient at 1000 tenants lasts whole seconds; the retry
  // budget (sum of capped, jittered backoffs) must outlast it or batch ops
  // turn into hard failures instead of delayed successes.
  fc.retry.max_retries = 30;
  fc.retry.max_backoff = Duration{400'000'000};
  fc.seed = 0x5EEDF1EE7ull + static_cast<std::uint64_t>(tenants);
  if (smoke) {
    // Shorter cadences + the rig's tighter queue keep smoke fast while
    // still bouncing a few batch ops off the admission queue.
    fc.high_period = Duration{500'000'000};
    fc.normal_period = Duration{200'000'000};
    fc.batch_period = Duration{8'000'000};
  } else {
    // Production-shaped cadences: prod jobs checkpoint deliberately (every
    // ~60s, as real DNN training does), batch jobs spam. Keeping per-daemon
    // high-class utilization under ~1% is what makes the 2x-p99 isolation
    // gate physically attainable with a non-preemptive datapath: a high op
    // can always wait out one in-service residual, but must almost never
    // queue behind a second 128MiB high transfer.
    fc.high_period = Duration{60'000'000'000};
    fc.normal_period = Duration{5'000'000'000};
  }
  return fc;
}

Row measure_fleet(int tenants, bool smoke, bool high_only) {
  FleetRig rig{smoke ? 2u : 64u};
  auto fc = fleet_config(tenants, smoke);
  if (high_only) {
    fc.high_fraction = 1.0;
    fc.batch_fraction = 0.0;
  }
  core::fleet::FleetGen gen{*rig.cluster, rig.cluster->node("client-volta"),
                            rig.rendezvous, rig.endpoints, fc};
  Row row{.tenants = tenants};
  rig.run([](core::fleet::FleetGen& g, Row& out) -> sim::Process {
    out.rep = co_await g.run();
  }(gen, row));
  absorb_daemons(rig, row);
  return row;
}

struct RepackRow {
  int tenants = 0;
  double gbps_control = 0.0;
  double gbps_repacking = 0.0;
  std::uint64_t failures = 0;
  Bytes freed = 0;
  int passes = 0;
  Duration paused{0};
  double ratio() const { return gbps_control > 0.0 ? gbps_repacking / gbps_control : 0.0; }
};

RepackRow measure_repack(int tenants, bool smoke) {
  RepackRow out{.tenants = tenants};
  for (const bool with_repack : {false, true}) {
    FleetRig rig{smoke ? 2u : 64u};

    // Seed garbage: a finished fleet whose non-latest slots become
    // reclaimable the moment FINISH_JOB lands.
    auto gc = fleet_config(std::max(8, tenants / 2), smoke);
    gc.name_prefix = "garbage";
    gc.finish_jobs = true;
    gc.high_period = gc.normal_period = gc.batch_period = Duration{5'000'000};
    core::fleet::FleetGen seeder{*rig.cluster, rig.cluster->node("client-volta"),
                                 rig.rendezvous, rig.endpoints, gc};
    rig.run([](core::fleet::FleetGen& g) -> sim::Process {
      const auto rep = co_await g.run();
      PORTUS_CHECK(rep.failures == 0, "garbage seeding fleet must not fail");
    }(seeder));

    // Live fleet, optionally with every daemon's repacker sweeping online
    // underneath it.
    auto lc = fleet_config(tenants, smoke);
    lc.name_prefix = "live";
    core::fleet::FleetGen live{*rig.cluster, rig.cluster->node("client-volta"),
                               rig.rendezvous, rig.endpoints, lc};
    core::fleet::FleetReport rep;
    std::vector<core::Repacker::Report> rreps{rig.daemons.size()};
    rig.run([](FleetRig& r, core::fleet::FleetGen& g, bool repack,
               core::fleet::FleetReport& rep_out,
               std::vector<core::Repacker::Report>& rrep_out) -> sim::Process {
      std::vector<sim::Process> maint;
      if (repack) {
        for (std::size_t i = 0; i < r.daemons.size(); ++i) {
          maint.push_back(r.eng.spawn(
              [](core::PortusDaemon& d, core::Repacker::Report& out) -> sim::Process {
                core::Repacker repacker{d};
                out = co_await repacker.repack_online();
              }(*r.daemons[i], rrep_out[i])));
        }
      }
      rep_out = co_await g.run();
      for (auto& p : maint) co_await p.join();
    }(rig, live, with_repack, rep, rreps));

    out.failures += rep.failures;
    if (with_repack) {
      out.gbps_repacking = rep.aggregate_gbps();
      for (const auto& rr : rreps) {
        out.freed += rr.freed_outdated + rr.freed_crashed;
        out.passes += rr.passes;
        out.paused += rr.paused_time;
      }
    } else {
      out.gbps_control = rep.aggregate_gbps();
    }
  }
  return out;
}

const char* cls_name(int c) { return core::to_string(static_cast<core::PriorityClass>(c)); }

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::vector<int> counts =
      smoke ? std::vector<int>{1, 8, 32} : std::vector<int>{1, 8, 64, 256, 1000};
  const int gate_count = smoke ? counts.back() : 256;
  const int repack_count = smoke ? 32 : 256;

  bench::print_header(
      "Multi-tenant fleet sweep: admission control vs fleet size",
      "high-priority p99 must stay within 2x of the 1-tenant value at the "
      "gate count; no client op may fail after retries; online repacking "
      "must free garbage while costing live traffic < 20%");

  bench::Report report{"fleet_sweep", "fleet", smoke};
  report.param("daemons", kDaemons);

  // Baseline: one lone high-priority tenant on an idle pool.
  const Row baseline = measure_fleet(1, smoke, /*high_only=*/true);
  const Duration base_p99 = baseline.rep.by_class[0].p99;
  report.param("baseline_high_p99_ns", base_p99);

  auto& fleet_table = report.table(
      "rows", {{"tenants"}, {"gbps", bench::kReal}, {"checkpoints"}, {"failures"}, {"retries"},
               {"backpressure"}, {"daemon_backpressure"}, {"paced"}});
  auto& class_table = report.table(
      "classes", {{"fleet_tenants"}, {"class", bench::kText}, {"tenants"}, {"checkpoints"},
                  {"p50_ns", bench::kNs}, {"p99_ns", bench::kNs}, {"max_ns", bench::kNs}});
  for (const int n : counts) {
    const auto r = measure_fleet(n, smoke, /*high_only=*/false);
    fleet_table.add({r.tenants, r.rep.aggregate_gbps(), r.rep.checkpoints, r.rep.failures,
                     r.rep.retries, r.rep.backpressure, r.daemon_backpressure, r.paced});
    for (int c = 0; c < core::kPriorityClasses; ++c) {
      const auto& cr = r.rep.by_class[c];
      class_table.add({r.tenants, cls_name(c), cr.tenants, cr.checkpoints, cr.p50, cr.p99,
                       cr.max});
    }
    report.require(r.rep.failures == 0, strf("{} tenants: {} client ops failed after retries",
                                             r.tenants, r.rep.failures));
    if (r.tenants == gate_count) {
      const auto p99 = r.rep.by_class[0].p99;
      report.require(p99 <= Duration{base_p99.count() * 2},
                     strf("high-priority p99 {} at {} tenants exceeds 2x the 1-tenant "
                          "baseline {}",
                          format_duration(p99), r.tenants, format_duration(base_p99)));
    }
    if (!smoke && n == counts.back()) {
      report.require(r.rep.backpressure != 0 && r.rep.retries != 0,
                     "the saturated fleet never exercised Backpressure/retry");
    }
  }

  const auto repack = measure_repack(repack_count, smoke);
  report
      .table("repack",
             {{"tenants"}, {"control_gbps", bench::kReal}, {"repacking_gbps", bench::kReal},
              {"freed_bytes", bench::kBytes}, {"passes"}, {"paused_ns", bench::kNs}},
             "online repacking under live fleet load:")
      .add({repack.tenants, repack.gbps_control, repack.gbps_repacking, repack.freed,
            repack.passes, repack.paused});
  report.require(repack.failures == 0, "live fleet ops failed during online repacking");
  report.require(repack.freed != 0, "online repacking freed nothing");
  report.require(repack.ratio() >= 0.8,
                 strf("online repacking degrades live throughput to {:.0f}% of control "
                      "(bar: >= 80%)",
                      repack.ratio() * 100.0));
  return report.finish();
}
