// Elastic resize under load (ISSUE 9 tentpole): a training client
// checkpoints continuously while the ring grows 2 -> 3 -> 4 and then
// drains + decommissions a founding member. Each step reports what the
// migrator moved (copies, bytes) and what the client felt
// (checkpoint p50/p99/worst during the step, epoch re-resolutions) —
// elasticity must cost retries, never failed ops.
//
// Emits BENCH_elastic.json; exits 1 unless every resize step moved copies,
// zero client ops failed across the whole run, the final restore from the
// resized ring is bit-exact, and one epoch names one version: every
// (shard key, epoch) the daemons hold DONE carries one payload-CRC block
// across the ring, and no landing was refused for holding another version
// at its epoch. --smoke shrinks the model and per-step op counts for the
// perf-smoke CI label.
#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "bench_common.h"
#include "core/cluster/cluster_client.h"
#include "core/cluster/cluster_ctl.h"
#include "core/cluster/migration.h"

using namespace portus;

namespace {

constexpr int kNodes = 4;

struct StepRow {
  std::string step;
  std::string kind;  // "steady" | "join" | "drain"
  std::uint64_t copies_moved = 0;  // migrator deltas over the step
  Bytes bytes_streamed = 0;
  std::uint64_t checkpoints = 0;  // client ops landed during the step
  Duration p50{0}, p99{0}, max{0};
  std::uint64_t reresolutions = 0;
  std::uint64_t client_errors = 0;
};

Duration percentile(std::vector<Duration> v, double p) {
  if (v.empty()) return Duration{0};
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct ElasticRig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  core::QpRendezvous rendezvous;
  core::cluster::ElasticCluster elastic{eng};
  std::vector<std::unique_ptr<core::PortusDaemon>> daemons;

  ElasticRig() {
    cluster = net::Cluster::sharded_testbed(eng, kNodes);
    for (int i = 0; i < kNodes; ++i) {
      core::PortusDaemon::Config cfg;
      cfg.endpoint = strf("portusd{}", i);
      cfg.workers = 8;
      daemons.push_back(std::make_unique<core::PortusDaemon>(
          *cluster, cluster->node(strf("pmem{}", i)), rendezvous, cfg));
      daemons.back()->start();
    }
    elastic.add_member("portusd0", *daemons[0]);
    elastic.add_member("portusd1", *daemons[1]);
    elastic.seal();
  }
  ~ElasticRig() { eng.shutdown(); }
};

// Shared loader state: the resize driver flips `step` while the loader
// keeps checkpointing and filing per-op latencies under the current step.
struct LoadState {
  bool stop = false;
  std::size_t step = 0;
  std::uint64_t iteration = 0;
  std::uint64_t last_epoch = 0;
  std::uint32_t last_crc = 0;
  std::vector<std::vector<Duration>> samples;
  std::vector<std::uint64_t> errors;
};

sim::Process loader(sim::Engine& eng, core::cluster::ClusterClient& client,
                    dnn::Model& model, LoadState& st) {
  co_await client.register_model(model);
  while (!st.stop) {
    model.mutate_weights(++st.iteration);
    const auto golden = model.weights_crc();
    const auto t0 = eng.now();
    try {
      const auto ck = co_await client.checkpoint(st.iteration);
      st.samples[st.step].push_back(eng.now() - t0);
      st.last_epoch = ck.epoch;
      st.last_crc = golden;
    } catch (const Error&) {
      ++st.errors[st.step];
    }
  }
}

// One version per (shard key, epoch): the payload-CRC blocks of every
// daemon's DONE slots, and the landings daemons refused for holding
// another version at the carried epoch.
struct VersionAudit {
  std::size_t done_slots = 0;
  std::size_t epochs = 0;        // distinct (key, epoch) pairs held DONE
  std::size_t split_epochs = 0;  // pairs held under more than one block
  std::uint64_t conflicts = 0;   // landings refused for another version
};

VersionAudit audit_versions(ElasticRig& rig) {
  VersionAudit a;
  std::map<std::pair<std::string, std::uint64_t>, std::set<std::vector<std::uint32_t>>> blocks;
  for (auto& d : rig.daemons) {
    a.conflicts += d->stats().version_conflicts;
    for (const auto& key : d->model_table().names()) {
      std::optional<core::MIndex> held;
      const core::MIndex& idx = d->index_of(key, held);
      for (int i = 0; i < 2; ++i) {
        if (idx.slot(i).state != core::SlotState::kDone) continue;
        ++a.done_slots;
        const auto block = idx.payload_crcs(i);
        blocks[{key, idx.slot(i).epoch}].insert(block.has_value() ? block->crcs
                                                                  : std::vector<std::uint32_t>{});
      }
    }
  }
  a.epochs = blocks.size();
  for (const auto& [at, versions] : blocks) a.split_epochs += versions.size() > 1 ? 1 : 0;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::uint64_t ops_per_step = smoke ? 4 : 16;

  bench::print_header(
      "Elastic resize under load: 2 -> 3 -> 4 -> drain/decommission",
      "membership epochs + online migration (Portus-Cluster elasticity); a "
      "resize under load must cost retries, never failed ops");

  ElasticRig rig;
  auto& volta = rig.cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.scale = smoke ? 0.02 : 0.1;
  auto model = dnn::ModelZoo::create(volta.gpu(0), "resnet50", opt);

  core::cluster::ClusterClient::Config ccfg;
  ccfg.replicas = 2;
  ccfg.shard_count = 8;
  ccfg.membership = &rig.elastic;
  ccfg.op_timeout = Duration{50'000'000};
  core::cluster::ClusterClient client{*rig.cluster, volta, volta.gpu(0),
                                      rig.rendezvous, ccfg};

  const std::vector<std::pair<std::string, std::string>> steps = {
      {"steady-2", "steady"}, {"join-portusd2", "join"}, {"join-portusd3", "join"},
      {"drain-portusd0", "drain"}};
  LoadState st;
  st.samples.resize(steps.size());
  st.errors.resize(steps.size(), 0);
  std::vector<StepRow> rows;

  bool driver_done = false;
  rig.eng.spawn(loader(rig.eng, client, model, st));
  rig.eng.spawn([](ElasticRig& r, core::cluster::ClusterClient& c, LoadState& s,
                   std::vector<StepRow>& out,
                   const std::vector<std::pair<std::string, std::string>>& plan,
                   std::uint64_t per_step, bool& done) -> sim::Process {
    const auto traffic = [&](std::uint64_t n) -> sim::SubTask<> {
      const std::uint64_t want = s.samples[s.step].size() + n;
      while (s.samples[s.step].size() < want && s.errors[s.step] < n) {
        co_await r.eng.sleep(Duration{100'000});
      }
    };
    for (std::size_t i = 0; i < plan.size(); ++i) {
      s.step = i;
      const auto before = r.elastic.stats();
      const auto rr_before = c.stats().epoch_reresolutions;
      if (plan[i].second == "join") {
        const std::string ep = plan[i].first.substr(std::strlen("join-"));
        core::PortusDaemon* d = nullptr;
        for (auto& cand : r.daemons) {
          if (cand->config().endpoint == ep) d = cand.get();
        }
        co_await r.elastic.join(ep, *d);
      } else if (plan[i].second == "drain") {
        const std::string ep = plan[i].first.substr(std::strlen("drain-"));
        co_await r.elastic.drain(ep);
        r.elastic.decommission(ep);
      }
      co_await traffic(per_step);
      const auto& after = r.elastic.stats();
      StepRow row;
      row.step = plan[i].first;
      row.kind = plan[i].second;
      row.copies_moved = after.copies_moved - before.copies_moved;
      row.bytes_streamed = after.bytes_streamed - before.bytes_streamed;
      row.checkpoints = s.samples[i].size();
      row.p50 = percentile(s.samples[i], 0.50);
      row.p99 = percentile(s.samples[i], 0.99);
      row.max = percentile(s.samples[i], 1.0);
      row.reresolutions = c.stats().epoch_reresolutions - rr_before;
      row.client_errors = s.errors[i];
      out.push_back(row);
    }
    s.stop = true;
    done = true;
  }(rig, client, st, rows, steps, ops_per_step, driver_done));
  rig.eng.run();
  PORTUS_CHECK(driver_done, "resize driver did not finish");

  // Final proof: the last acked round restores bit-exact from the ring as
  // it now stands (3 actives, one member decommissioned).
  bool restored = false;
  model.mutate_weights(0xD1DE);
  rig.eng.spawn([](core::cluster::ClusterClient& c, LoadState& s,
                   bool& done) -> sim::Process {
    const auto rr = co_await c.restore();
    PORTUS_CHECK(rr.epoch == s.last_epoch, "restore served a stale epoch");
    done = true;
  }(client, st, restored));
  rig.eng.run();
  const bool bit_exact = restored && model.weights_crc() == st.last_crc;
  const auto audit = audit_versions(rig);

  std::cout << strf(
      "version audit: {} DONE slots, {} (key, epoch) pairs, {} held as two versions, "
      "{} landings refused for another version\n",
      audit.done_slots, audit.epochs, audit.split_epochs, audit.conflicts);

  bench::Report report{"elastic_resize", "elastic", smoke};
  report.param("nodes", kNodes);
  report.param("shard_count", ccfg.shard_count);
  report.param("final_epoch", rig.elastic.membership().epoch);
  report.param("active_members", rig.elastic.membership().active_positions().size());
  report.param("total_checkpoints", client.stats().checkpoints);
  report.param("bit_exact_restore", bit_exact);
  auto& table = report.table(
      "steps", {{"step", bench::kText}, {"kind", bench::kText}, {"copies_moved"},
                {"bytes_streamed", bench::kBytes}, {"checkpoints"},
                {"p50_ns", bench::kNs}, {"p99_during_ns", bench::kNs}, {"max_ns", bench::kNs},
                {"reresolutions"}, {"client_errors"}});
  std::uint64_t errors = 0;
  for (const auto& row : rows) {
    table.add({row.step, row.kind, row.copies_moved, row.bytes_streamed, row.checkpoints,
               row.p50, row.p99, row.max, row.reresolutions, row.client_errors});
    errors += row.client_errors;
    report.require(row.kind == "steady" || row.copies_moved != 0,
                   strf("step {} moved no shard copies", row.step));
  }
  report.require(errors == 0,
                 strf("{} client ops failed during the resize (bar: 0)", errors));
  report.require(bit_exact, "restore from the resized ring is not bit-exact");
  report.require(audit.split_epochs == 0 && audit.conflicts == 0,
                 strf("one epoch named two versions: {} (key, epoch) pairs split, {} landings "
                      "refused (bar: 0)",
                      audit.split_epochs, audit.conflicts));
  return report.finish();
}
