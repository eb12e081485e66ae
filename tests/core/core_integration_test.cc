// End-to-end tests: PortusClient <-> PortusDaemon over the simulated
// cluster — registration, zero-copy checkpoint/restore with bit-exact
// verification, multi-tenancy, crash consistency across daemon restarts,
// async training integration, repacking, portusctl.
#include <gtest/gtest.h>

#include "core/async_coordinator.h"
#include "core/client.h"
#include "core/daemon/daemon.h"
#include "core/daemon/repacker.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "dnn/training.h"
#include "net/cluster.h"
#include "storage/ext4_nvme.h"

namespace portus::core {
namespace {

using namespace std::chrono_literals;

struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  net::Node& client_node = cluster->node("client-volta");
  net::Node& server_node = cluster->node("server");
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon =
      std::make_unique<PortusDaemon>(*cluster, server_node, rendezvous);

  Rig() { daemon->start(); }
  ~Rig() { eng.shutdown(); }  // destroy coroutines before daemon/cluster

  dnn::Model model(const std::string& name, double scale, int gpu = 0) {
    dnn::ModelZoo::Options opt;
    opt.scale = scale;
    return dnn::ModelZoo::create(client_node.gpu(static_cast<std::size_t>(gpu)), name, opt);
  }

  std::unique_ptr<PortusClient> client(int gpu = 0) {
    return std::make_unique<PortusClient>(*cluster, client_node,
                                          client_node.gpu(static_cast<std::size_t>(gpu)),
                                          rendezvous);
  }
};

TEST(PortusE2ETest, CheckpointThenRestoreIsBitExact) {
  Rig r;
  auto model = r.model("resnet50", 0.05);
  const auto crc0 = model.weights_crc();
  auto client = r.client();

  bool done = false;
  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, std::uint32_t crc,
                 bool& ok) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    const auto epoch = co_await c.checkpoint(m, 1);
    EXPECT_EQ(epoch, 1u);

    m.mutate_weights(99);  // training diverges
    EXPECT_NE(m.weights_crc(), crc);

    const auto restored = co_await c.restore(m);
    EXPECT_EQ(restored, 1u);
    EXPECT_EQ(m.weights_crc(), crc) << "restore must reproduce the exact bytes";
    ok = true;
    (void)rig;
  }(r, *client, model, crc0, done));
  r.eng.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r.daemon->stats().checkpoints, 1u);
  EXPECT_EQ(r.daemon->stats().restores, 1u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(PortusE2ETest, CheckpointedBytesArePersistedOnPmem) {
  Rig r;
  auto model = r.model("alexnet", 0.05);
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*client, model));
  r.eng.run();

  // The committed slot's data must be durable (not merely written).
  auto index = r.daemon->load_index("alexnet");
  const auto slot_idx = index.latest_done_slot();
  ASSERT_TRUE(slot_idx.has_value());
  const auto& slot = index.slot(*slot_idx);
  EXPECT_TRUE(r.daemon->device().is_persisted(slot.data_offset, index.slot_size()));

  // Byte-compare tensor 0 between GPU and PMEM.
  const auto& t0 = index.tensors()[0];
  auto& buf = model.tensor(0).buffer();
  EXPECT_EQ(r.daemon->device().crc(slot.data_offset + t0.offset_in_slot, t0.size),
            buf.segment().crc(buf.offset(), t0.size));
}

TEST(PortusE2ETest, RestoreWithoutCheckpointFails) {
  Rig r;
  auto model = r.model("alexnet", 0.02);
  auto client = r.client();
  bool failed = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, bool& f) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    try {
      co_await c.restore(m);
    } catch (const Error&) {
      f = true;
    }
  }(*client, model, failed));
  r.eng.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(r.daemon->stats().failed_ops, 1u);
}

TEST(PortusE2ETest, SuccessiveCheckpointsAlternateSlots) {
  Rig r;
  auto model = r.model("alexnet", 0.02);
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      m.mutate_weights(i);
      const auto epoch = co_await c.checkpoint(m, i);
      EXPECT_EQ(epoch, i);
    }
  }(*client, model));
  r.eng.run();

  auto index = r.daemon->load_index("alexnet");
  EXPECT_EQ(index.max_epoch(), 4u);
  EXPECT_EQ(index.slot(0).epoch + index.slot(1).epoch, 7u);  // epochs 3 and 4
  EXPECT_EQ(index.slot(0).state, SlotState::kDone);
  EXPECT_EQ(index.slot(1).state, SlotState::kDone);
}

TEST(PortusE2ETest, MultiTenantConcurrentCheckpoints) {
  Rig r;
  std::vector<dnn::Model> models;
  std::vector<std::unique_ptr<PortusClient>> clients;
  std::vector<std::uint32_t> crcs;
  for (int i = 0; i < 4; ++i) {
    models.push_back(r.model(dnn::ModelZoo::table2_names()[static_cast<std::size_t>(i)],
                             0.02, i % 4));
    crcs.push_back(models.back().weights_crc());
    clients.push_back(r.client(i % 4));
  }
  for (int i = 0; i < 4; ++i) {
    r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
      co_await c.connect();
      co_await c.register_model(m);
      co_await c.checkpoint(m, 1);
      m.mutate_weights(7);
      co_await c.restore(m);
    }(*clients[static_cast<std::size_t>(i)], models[static_cast<std::size_t>(i)]));
  }
  r.eng.run();
  EXPECT_EQ(r.daemon->stats().checkpoints, 4u);
  EXPECT_EQ(r.daemon->stats().restores, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(models[static_cast<std::size_t>(i)].weights_crc(),
              crcs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// One tenant's resnet50 restore (client-volta), alone or while another
// tenant's bert checkpoint (client-ampere) pulls through the same daemon.
// Returns the restore's time; with the pull, also checks that it spans the
// restore.
Duration restore_beside_a_pull(bool with_pull) {
  Rig r;
  auto& ampere = r.cluster->node("client-ampere");
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto restored = dnn::ModelZoo::create(r.client_node.gpu(0), "resnet50", opt);
  auto pulled = dnn::ModelZoo::create(ampere.gpu(0), "bert", opt);
  auto restorer = r.client();
  PortusClient puller{*r.cluster, ampere, ampere.gpu(0), r.rendezvous};
  Duration took{0};
  r.eng.spawn([](sim::Engine& e, PortusClient& rc, dnn::Model& rm, PortusClient& pc,
                 dnn::Model& pm, bool pull, Duration& out) -> sim::Process {
    co_await rc.connect();
    co_await rc.register_model(rm);
    co_await rc.checkpoint(rm, 1);
    co_await pc.connect();
    co_await pc.register_model(pm);
    Time pull_end{0};
    sim::Process checkpoint;
    if (pull) {
      checkpoint = e.spawn([](sim::Engine& en, PortusClient& c, dnn::Model& m,
                              Time& end) -> sim::Process {
        co_await c.checkpoint(m, 1);
        end = en.now();
      }(e, pc, pm, pull_end));
    }
    co_await e.sleep(1ms);  // the pull is on the wire
    const Time t0 = e.now();
    co_await rc.restore(rm);
    out = e.now() - t0;
    if (pull) {
      const Time restore_end = e.now();
      co_await checkpoint.join();
      EXPECT_GT(pull_end, restore_end) << "the pull ended before the restore";
    }
  }(r.eng, *restorer, restored, puller, pulled, with_pull, took));
  r.eng.run();
  EXPECT_EQ(r.daemon->stats().failed_ops, 0u);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
  return took;
}

// The daemon's NIC is full duplex: a restore pushes out of it while another
// tenant's checkpoint pulls into it, so the restore takes its lone time to
// the ns instead of queuing behind the pull.
TEST(PortusE2ETest, RestoreBesideAnotherTenantsPullTakesItsLoneTime) {
  const Duration alone = restore_beside_a_pull(false);
  EXPECT_GT(alone, 0ns);
  EXPECT_EQ(restore_beside_a_pull(true), alone);
}

TEST(PortusE2ETest, CrashDuringCheckpointKeepsPreviousVersionRestorable) {
  Rig r;
  auto model = r.model("alexnet", 0.05);
  auto client = r.client();
  const auto crc_v1 = model.weights_crc();

  // First checkpoint completes; second is cut off mid-pull by running the
  // engine only partway, then the server crashes.
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(2);
    co_await c.checkpoint(m, 2);  // will be interrupted
  }(*client, model));

  // Advance in small steps until the second checkpoint has begun (its slot
  // flipped ACTIVE) but not committed — a deterministic mid-pull snapshot.
  bool mid_pull = false;
  for (int step = 0; step < 100'000; ++step) {
    r.eng.run_for(20us);
    if (r.daemon->stats().checkpoints != 1u) continue;
    MIndex* live = r.daemon->find_live_index("alexnet");
    if (live == nullptr) continue;
    const bool active0 = live->slot(0).state == SlotState::kActive;
    const bool active1 = live->slot(1).state == SlotState::kActive;
    if (active0 || active1) {
      mid_pull = true;
      break;
    }
  }
  ASSERT_TRUE(mid_pull) << "never observed the second checkpoint in flight";
  ASSERT_EQ(r.daemon->stats().checkpoints, 1u);

  r.daemon->device().simulate_crash();

  // New daemon process recovers from PMEM.
  auto index_offset = [&] {
    PortusDaemon fresh{*r.cluster, r.server_node, r.rendezvous,
                       PortusDaemon::Config{.endpoint = "portusd-2"}};
    fresh.recover();
    EXPECT_EQ(fresh.model_table().size(), 1u);
    auto index = fresh.load_index("alexnet");
    const auto latest = index.latest_done_slot();
    EXPECT_TRUE(latest.has_value()) << "epoch-1 version must survive";
    EXPECT_EQ(index.slot(*latest).epoch, 1u);
    // And its contents are intact (CRC equals the epoch-1 weights).
    const auto& slot = index.slot(*latest);
    // Re-create the epoch-1 weights on a scratch model for comparison.
    return std::make_pair(slot.data_offset, index.slot_size());
  }();
  (void)index_offset;
  (void)crc_v1;
}

TEST(PortusE2ETest, DaemonRestartThenReRegisterAndRestore) {
  Rig r;
  auto model = r.model("resnet50", 0.03);
  auto client = r.client();
  const auto crc0 = model.weights_crc();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
  }(*client, model));
  r.eng.run();

  // Clean shutdown (all persisted), then restart daemon + new client session.
  r.daemon->device().simulate_crash();  // only unflushed data would be lost
  PortusDaemon fresh{*r.cluster, r.server_node, r.rendezvous,
                     PortusDaemon::Config{.endpoint = "portusd-2"}};
  fresh.recover();
  fresh.start();

  auto client2 = std::make_unique<PortusClient>(*r.cluster, r.client_node,
                                                r.client_node.gpu(0), r.rendezvous,
                                                "portusd-2");
  model.mutate_weights(123);  // the "restarted" job has garbage weights
  bool restored = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, std::uint32_t crc, bool& ok) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);  // re-registration reuses the PMEM index
    co_await c.restore(m);
    EXPECT_EQ(m.weights_crc(), crc);
    ok = true;
  }(*client2, model, crc0, restored));
  r.eng.run();
  EXPECT_TRUE(restored);
  EXPECT_EQ(fresh.stats().restores, 1u);
}

TEST(PortusE2ETest, AsyncHookOverlapsTrainingWithLowStall) {
  Rig r;
  auto model = r.model("vgg19_bn", 0.10);  // ~55 MiB: pull ~10 ms
  auto client = r.client();

  dnn::TrainingStats sync_stats, async_stats;
  const dnn::TrainingConfig cfg{.iteration_time = 50ms, .update_fraction = 0.1,
                                .busy_fraction = 1.0, .mutate_weights = false};

  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, dnn::TrainingConfig config,
                 dnn::TrainingStats& sync_out, dnn::TrainingStats& async_out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);

    PortusHook sync_hook{c, m, 1, PortusHook::Mode::kSync};
    co_await rig.eng.spawn(
        dnn::train(rig.eng, rig.client_node.gpu(0), &m, config, 10, sync_hook, sync_out))
        .join();

    PortusHook async_hook{c, m, 1, PortusHook::Mode::kAsync};
    co_await rig.eng.spawn(
        dnn::train(rig.eng, rig.client_node.gpu(0), &m, config, 10, async_hook, async_out))
        .join();
    co_await async_hook.drain();
    EXPECT_EQ(async_hook.stats().completed, 10u);
  }(r, *client, model, cfg, sync_stats, async_stats));
  r.eng.run();

  EXPECT_GT(sync_stats.checkpoint_stall, 5 * 10ms) << "sync mode stalls every iteration";
  EXPECT_LT(async_stats.checkpoint_stall, sync_stats.checkpoint_stall / 3)
      << "async mode must hide most of the pull behind F/B";
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

TEST(PortusE2ETest, RepackerFreesOutdatedVersionAfterFinish) {
  Rig r;
  auto model = r.model("alexnet", 0.02);
  auto client = r.client();
  r.eng.spawn([](PortusClient& c, dnn::Model& m) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(1);
    co_await c.checkpoint(m, 2);
    co_await c.finish(m);
  }(*client, model));
  r.eng.run();

  ASSERT_TRUE(r.daemon->finished_models().contains("alexnet"));
  const auto live_before = r.daemon->allocator().live_bytes();
  const auto report = Repacker{*r.daemon}.repack();
  EXPECT_EQ(report.slots_cleared, 1);
  EXPECT_GT(report.freed_outdated, 0u);
  EXPECT_LT(r.daemon->allocator().live_bytes(), live_before);

  // The newest version is still restorable.
  auto index = r.daemon->load_index("alexnet");
  ASSERT_TRUE(index.latest_done_slot().has_value());
  EXPECT_EQ(index.slot(*index.latest_done_slot()).epoch, 2u);
}

TEST(PortusE2ETest, PortusctlViewAndDump) {
  Rig r;
  auto model = r.model("swin_b", 0.02);
  auto client = r.client();
  storage::Ext4NvmeFs fs{r.eng, "share-fs"};

  bool dumped = false;
  r.eng.spawn([](Rig& rig, PortusClient& c, dnn::Model& m, storage::Ext4NvmeFs& out_fs,
                 bool& ok) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);

    Portusctl ctl{*rig.daemon};
    const auto infos = ctl.view();
    EXPECT_EQ(infos.size(), 1u);
    if (infos.size() != 1u) co_return;
    EXPECT_EQ(infos[0].name, "swin_b");
    EXPECT_EQ(infos[0].layers, m.layer_count());
    EXPECT_TRUE(infos[0].restorable);
    EXPECT_NE(ctl.render_view().find("swin_b"), std::string::npos);

    // Dump out of PMEM into the portable container and validate it.
    const auto file = co_await ctl.dump("swin_b");
    EXPECT_EQ(file.tensors.size(), m.layer_count());
    EXPECT_EQ(file.tensors[0].data, m.tensor(0).buffer().download());

    co_await ctl.dump_to("swin_b", out_fs, "/export/swin_b.ptck");
    EXPECT_TRUE(out_fs.exists("/export/swin_b.ptck"));
    const auto bytes = co_await out_fs.read_file("/export/swin_b.ptck");
    const auto parsed = storage::CheckpointSerializer::deserialize(bytes);
    EXPECT_EQ(parsed.model_name, "swin_b");
    ok = true;
  }(r, *client, model, fs, dumped));
  r.eng.run();
  EXPECT_TRUE(dumped);
  EXPECT_EQ(r.eng.failed_process_count(), 0);
}

// Property sweep: checkpoint/restore round-trips bit-exactly for every
// Table II model at small scale.
class PortusModelSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PortusModelSweep, RoundTrip) {
  Rig r;
  auto model = r.model(GetParam(), 0.01);
  auto client = r.client();
  const auto crc0 = model.weights_crc();
  bool ok = false;
  r.eng.spawn([](PortusClient& c, dnn::Model& m, std::uint32_t crc, bool& done) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    co_await c.checkpoint(m, 1);
    m.mutate_weights(5);
    co_await c.restore(m);
    EXPECT_EQ(m.weights_crc(), crc);
    done = true;
  }(*client, model, crc0, ok));
  r.eng.run();
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Table2, PortusModelSweep,
                         ::testing::Values("alexnet", "convnext_base", "resnet50", "swin_b",
                                           "vgg19_bn", "vit_l_32", "bert"));

}  // namespace
}  // namespace portus::core
