// portusctl fsck (core/daemon/fsck.h): payload scrubbing, corruption
// detection/repair, crash-leftover demotion, and orphan sweeping — driven
// against a real daemon with real checkpointed state.
#include "core/daemon/fsck.h"

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/strformat.h"
#include "core/client.h"
#include "core/portusctl.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

// A daemon with one registered model and two committed epochs; golden CRCs
// of both checkpointed states captured for bit-exactness assertions.
struct Rig {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  std::unique_ptr<PortusDaemon> daemon =
      std::make_unique<PortusDaemon>(*cluster, cluster->node("server"), rendezvous);
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<PortusClient> client;
  std::uint32_t golden[3] = {0, 0, 0};  // [epoch], epoch 1 and 2 used

  Rig() {
    daemon->start();
    auto& node = cluster->node("client-volta");
    dnn::ModelZoo::Options opt;
    opt.scale = 0.02;
    model = std::make_unique<dnn::Model>(
        dnn::ModelZoo::create(node.gpu(0), "alexnet", opt));
    client = std::make_unique<PortusClient>(*cluster, node, node.gpu(0), rendezvous);
    eng.spawn([](Rig& r) -> sim::Process {
      co_await r.client->connect();
      co_await r.client->register_model(*r.model);
      for (std::uint64_t k = 1; k <= 2; ++k) {
        r.model->mutate_weights(k);
        r.golden[k] = r.model->weights_crc();
        const auto epoch = co_await r.client->checkpoint(*r.model, k);
        if (epoch != k) throw Error("unexpected epoch");
      }
    }(*this));
    eng.run();
  }
  ~Rig() { eng.shutdown(); }

  pmem::PmemDevice& device() { return daemon->device(); }

  // Flip one bit of one byte inside tensor `t` of the given DONE slot.
  void flip_byte(const MIndex& index, int slot_i, std::size_t t, Bytes byte_in_tensor,
                 std::byte mask) {
    const auto& tensor = index.tensors()[t];
    const Bytes at = index.slot(slot_i).data_offset + tensor.offset_in_slot + byte_in_tensor;
    auto b = device().read(at, 1);
    b[0] ^= mask;
    device().write(at, b);
    device().persist(at, 1);
  }
};

std::uint32_t crc_of_crcs(const std::vector<std::uint32_t>& crcs) {
  Crc32 agg;
  for (const auto c : crcs) agg.update(&c, sizeof c);
  return agg.value();
}

TEST(FsckTest, HealthyStoreIsClean) {
  Rig r;
  const auto report = Fsck{*r.daemon}.run(/*repair=*/false);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.repaired);
  EXPECT_EQ(report.models_scanned, 1);
  EXPECT_EQ(report.torn_records, 0);
  EXPECT_EQ(report.corrupt_tensors, 0);
}

// Acceptance: fsck detects 100% of randomly injected payload bit-flips.
// (CRC32 detects every single-bit error, so every round MUST trip.)
TEST(FsckTest, DetectsEveryInjectedBitFlip) {
  Rig r;
  const auto index = r.daemon->load_index("alexnet");
  const auto slot_i = index.latest_done_slot();
  ASSERT_TRUE(slot_i.has_value());
  EXPECT_EQ(index.slot(*slot_i).epoch, 2u);

  Rng rng{20260807};
  int detected = 0;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const auto t = rng.uniform(0, index.tensors().size() - 1);
    const Bytes at = rng.uniform(0, index.tensors()[t].size - 1);
    const auto mask = static_cast<std::byte>(1u << rng.uniform(0, 7));

    r.flip_byte(index, *slot_i, t, at, mask);
    const auto bad = Fsck{*r.daemon}.run(/*repair=*/false);
    if (!bad.clean() && bad.corrupt_tensors >= 1 && bad.corrupt_demoted >= 1) ++detected;

    r.flip_byte(index, *slot_i, t, at, mask);  // undo
    const auto good = Fsck{*r.daemon}.run(/*repair=*/false);
    EXPECT_TRUE(good.clean()) << "round " << round << ": store dirty after undo";
  }
  EXPECT_EQ(detected, kRounds) << "fsck must detect every injected bit flip";
}

TEST(FsckTest, RepairDemotesCorruptSlotAndOlderEpochRestores) {
  Rig r;
  {
    const auto index = r.daemon->load_index("alexnet");
    const auto slot_i = index.latest_done_slot();
    ASSERT_TRUE(slot_i.has_value());
    r.flip_byte(index, *slot_i, 0, 0, std::byte{0x80});  // corrupt epoch 2
  }

  const auto report = Fsck{*r.daemon}.run(/*repair=*/true);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(report.corrupt_demoted, 1);
  EXPECT_GE(report.corrupt_tensors, 1);
  EXPECT_GT(report.freed, 0u);
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/true).clean())
      << "repair must converge in one pass";

  // The double-mapping peer (epoch 1) survived and still validates.
  const auto index = r.daemon->load_index("alexnet");
  const auto slot_i = index.latest_done_slot();
  ASSERT_TRUE(slot_i.has_value());
  EXPECT_EQ(index.slot(*slot_i).epoch, 1u);
  const auto block = index.payload_crcs(*slot_i);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(crc_of_crcs(block->crcs), r.golden[1]);

  // End-to-end: a restarted daemon serves epoch 1 to a re-registered
  // client, bit-exact with what was checkpointed as epoch 1.
  r.daemon->recover();
  auto& node = r.cluster->node("client-volta");
  PortusClient fresh{*r.cluster, node, node.gpu(0), r.rendezvous};
  std::uint64_t restored = 0;
  auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m, std::uint64_t& ep)
                              -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    ep = co_await c.restore(m);
  }(fresh, *r.model, restored));
  r.eng.run();
  proc.check();
  EXPECT_EQ(restored, 1u);
  EXPECT_EQ(r.model->weights_crc(), r.golden[1]);
  EXPECT_EQ(fresh.stats().last_payload_crc, r.golden[1]);
}

// Every reader of a DONE slot applies one payload-integrity rule: a flipped
// byte and a stale block (valid, but for another epoch) are each refused by
// restore and by `portusctl dump`, and reported by fsck.
TEST(FsckTest, EveryReaderRefusesAFlippedByteAndAStaleBlock) {
  Rig r;
  auto index = r.daemon->load_index("alexnet");
  const int newest = *index.latest_done_slot();
  const auto epoch = index.slot(newest).epoch;
  const auto block = index.payload_crcs(newest);
  ASSERT_TRUE(block.has_value());

  // Each returns the reader's refusal, empty when it accepted the slot.
  const auto restore = [&r] {
    std::string error;
    auto proc = r.eng.spawn([](PortusClient& c, dnn::Model& m, std::string& out) -> sim::Process {
      try {
        co_await c.restore(m);
      } catch (const Error& e) {
        out = e.what();
      }
    }(*r.client, *r.model, error));
    r.eng.run();
    proc.check();
    return error;
  };
  const auto dump = [&r] {
    std::string error;
    Portusctl ctl{*r.daemon};
    auto proc = r.eng.spawn([](Portusctl& ctl, std::string& out) -> sim::Process {
      try {
        co_await ctl.dump("alexnet");
      } catch (const Corruption& e) {
        out = e.what();
      }
    }(ctl, error));
    r.eng.run();
    proc.check();
    return error;
  };

  // A flipped payload byte.
  r.model->mutate_weights(99);
  const auto diverged = r.model->weights_crc();
  r.flip_byte(index, newest, 0, 0, std::byte{0x01});
  EXPECT_NE(restore().find("failed its payload CRC on restore"), std::string::npos);
  EXPECT_EQ(r.daemon->stats().integrity_rejects, 1u);
  EXPECT_EQ(r.model->weights_crc(), diverged) << "a refused restore wrote GPU memory";
  EXPECT_NE(dump().find("failed its payload CRC on dump"), std::string::npos);
  auto report = Fsck{*r.daemon}.run(/*repair=*/false);
  EXPECT_EQ(report.corrupt_demoted, 1);
  EXPECT_EQ(report.corrupt_tensors, 1);
  r.flip_byte(index, newest, 0, 0, std::byte{0x01});  // undo

  // A valid block left from the previous epoch.
  index.set_payload_crcs(newest, epoch - 1, block->crcs);
  const auto stale = strf("is stale at epoch {}", epoch);
  EXPECT_NE(restore().find(stale), std::string::npos);
  EXPECT_EQ(r.daemon->stats().integrity_rejects, 2u);
  EXPECT_EQ(r.model->weights_crc(), diverged);
  EXPECT_NE(dump().find(stale), std::string::npos);
  report = Fsck{*r.daemon}.run(/*repair=*/false);
  EXPECT_EQ(report.corrupt_demoted, 1);
  EXPECT_EQ(report.corrupt_tensors, 0);

  // With its own block back, every reader accepts the slot again.
  index.set_payload_crcs(newest, epoch, block->crcs);
  EXPECT_EQ(restore(), "");
  EXPECT_EQ(r.model->weights_crc(), r.golden[epoch]);
  EXPECT_EQ(dump(), "");
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/false).clean());
}

TEST(FsckTest, DemotesActiveSlotsAndSweepsOrphans) {
  Rig r;
  {
    // Forge a crash leftover: the older DONE slot back to ACTIVE, plus an
    // allocation nothing references (a mid-registration power cut's debris).
    auto index = r.daemon->load_index("alexnet");
    const auto newest = index.latest_done_slot();
    ASSERT_TRUE(newest.has_value());
    const int older = 1 - *newest;
    ASSERT_EQ(index.slot(older).state, SlotState::kDone);
    index.set_slot(older, SlotState::kActive, index.slot(older).epoch);
    r.daemon->allocator().alloc(64_KiB);
  }

  const auto report = Fsck{*r.daemon}.run(/*repair=*/true);
  EXPECT_EQ(report.active_demoted, 1);
  EXPECT_EQ(report.orphaned_extents, 1);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.freed, 64_KiB);

  const auto index = r.daemon->load_index("alexnet");
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(index.slot(i).state, SlotState::kActive);
  }
  EXPECT_TRUE(index.latest_done_slot().has_value()) << "newest epoch must survive";
  EXPECT_EQ(index.slot(*index.latest_done_slot()).epoch, 2u);
  EXPECT_TRUE(Fsck{*r.daemon}.run(/*repair=*/true).clean());
}

}  // namespace
}  // namespace portus::core
