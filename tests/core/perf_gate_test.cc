// perf-gate: the single-op datapath's virtual time, pinned to the
// nanosecond.
//
// Each Table II model at full size (canonical layer split, phantom
// payloads) registers with a default daemon on the paper testbed, then
// takes one checkpoint and one restore: the Portus columns of Fig. 11
// (bench/fig11_checkpoint) and Fig. 12 (bench/fig12_restore). Virtual time
// is deterministic, so any change to the modeled single-op datapath (control
// round trips, extents, RDMA, PMEM flush, CRC, commit, the worker pool a lone
// op runs on) moves these numbers. A change meant to move them updates the
// table, and the diff shows by how much; `ctest -L perf-gate` runs it alone.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::core {
namespace {

struct Timeline {
  Duration checkpoint{0};
  Duration restore{0};
};

Timeline measure(const std::string& name) {
  sim::Engine eng;
  auto cluster = net::Cluster::paper_testbed(eng);
  QpRendezvous rendezvous;
  PortusDaemon daemon{*cluster, cluster->node("server"), rendezvous};
  daemon.start();
  auto& volta = cluster->node("client-volta");
  dnn::ModelZoo::Options opt;
  opt.force_phantom = true;
  auto model = dnn::ModelZoo::create(volta.gpu(0), name, opt);
  PortusClient client{*cluster, volta, volta.gpu(0), rendezvous};
  Timeline t;
  auto proc = eng.spawn([](sim::Engine& e, PortusClient& c, dnn::Model& m,
                           Timeline& out) -> sim::Process {
    co_await c.connect();
    co_await c.register_model(m);
    Time t0 = e.now();
    co_await c.checkpoint(m, 1);
    out.checkpoint = e.now() - t0;
    t0 = e.now();
    co_await c.restore(m);
    out.restore = e.now() - t0;
  }(eng, client, model, t));
  eng.run();
  proc.check();
  EXPECT_EQ(daemon.stats().failed_ops, 0u);
  eng.shutdown();
  return t;
}

TEST(PerfGateTest, TableIIModelsCheckpointAndRestoreToTheNanosecond) {
  struct Row {
    const char* model;
    std::int64_t checkpoint_ns;
    std::int64_t restore_ns;
  };
  // fig11 / fig12 print these to the microsecond.
  const Row pinned[] = {
      {"alexnet", 42'247'868, 29'546'764},
      {"convnext_base", 62'739'685, 44'058'462},
      {"resnet50", 18'327'647, 12'916'352},
      {"swin_b", 62'128'299, 43'622'441},
      {"vgg19_bn", 99'444'819, 69'547'346},
      {"vit_l_32", 212'754'493, 148'859'955},
      {"bert", 233'648'287, 163'519'598},
  };
  const auto names = dnn::ModelZoo::table2_names();
  ASSERT_EQ(names.size(), std::size(pinned));
  for (std::size_t i = 0; i < names.size(); ++i) {
    SCOPED_TRACE(names[i]);
    ASSERT_EQ(names[i], pinned[i].model);
    const auto t = measure(names[i]);
    EXPECT_EQ(t.checkpoint.count(), pinned[i].checkpoint_ns);
    EXPECT_EQ(t.restore.count(), pinned[i].restore_ns);
  }
}

}  // namespace
}  // namespace portus::core
