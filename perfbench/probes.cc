#include "probes.h"

#include <functional>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/daemon/allocator.h"
#include "core/daemon/extent.h"
#include "core/daemon/mindex.h"
#include "core/protocol.h"
#include "dnn/model_zoo.h"
#include "net/cluster.h"

namespace portus::perfbench {

namespace {

constexpr double kProbeSeconds = 0.05;  // minimum host time per probe

// Host seconds per call of `fn`, repeated until kProbeSeconds elapsed.
double time_per_call(const std::function<void()>& fn) {
  std::uint64_t calls = 0;
  const double t0 = cpu_seconds();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = cpu_seconds() - t0;
  } while (elapsed < kProbeSeconds);
  return elapsed / static_cast<double>(calls);
}

// Tensor sizes of the models a workload runs (phantom: no payload bytes).
std::vector<std::vector<Bytes>> workload_models(const std::string& workload) {
  std::vector<std::vector<Bytes>> out;
  const auto from_zoo = [&](const std::vector<std::string>& names, double scale) {
    sim::Engine eng;
    auto cluster = net::Cluster::paper_testbed(eng);
    auto& gpu = cluster->node("client-volta").gpu(0);
    for (const auto& name : names) {
      dnn::ModelZoo::Options opt;
      opt.scale = scale;
      opt.force_phantom = true;
      const auto m = dnn::ModelZoo::create(gpu, name, opt);
      std::vector<Bytes> sizes;
      for (const auto& t : m.tensors()) sizes.push_back(t.byte_size());
      out.push_back(std::move(sizes));
    }
    eng.shutdown();
  };
  if (workload == "zoo") {
    from_zoo(dnn::ModelZoo::table2_names(), 1.0);
  } else if (workload == "elastic") {
    from_zoo({"resnet50", "swin_b", "vgg19_bn", "bert"}, 0.005);
  } else {
    for (const Bytes model : {128_MiB, 32_MiB, 8_MiB}) out.emplace_back(8, model / 8);
  }
  return out;
}

core::RegisterModelMsg registration(const std::vector<Bytes>& sizes, int id) {
  core::RegisterModelMsg msg;
  msg.model_name = "probe-" + std::to_string(id);
  msg.qp_tokens = {1};
  msg.phantom = true;
  msg.max_sges = 16;
  std::uint64_t addr = 0x10000000;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    msg.tensors.push_back(core::TensorDesc{.name = "layer" + std::to_string(i) + ".weight",
                                           .dtype = dnn::DType::kF32,
                                           .shape = {static_cast<std::int64_t>(sizes[i] / 4)},
                                           .size = sizes[i],
                                           .gpu_addr = addr,
                                           .rkey = 7});
    addr += sizes[i];
  }
  return msg;
}

core::PmemAllocator::Config allocator_config(Bytes device_size) {
  return core::PmemAllocator::Config{.table_offset = 64_KiB,
                                     .table_capacity = 8192,
                                     .data_offset = 1_MiB,
                                     .data_end = device_size,
                                     .shards = 8,
                                     .refill_bytes = 256_KiB};
}

}  // namespace

MetricMap run_probes(const std::string& workload) {
  MetricMap m;

  // CRC32: slice-by-8 vs bytewise over a checkpoint-chunk-sized buffer.
  {
    std::vector<std::byte> buf(4_MiB);
    Rng{42}.fill(buf);
    volatile std::uint32_t sink = 0;  // keeps the timed CRCs from being elided
    const double fast = time_per_call([&] { sink = Crc32{}.update(buf).value(); });
    const double slow =
        time_per_call([&] { sink = Crc32{}.update_bytewise(buf.data(), buf.size()).value(); });
    m["crc.host_gbps"] = Metric{static_cast<double>(buf.size()) / fast / 1e9, "GB/s",
                                "slice-by-8"};
    m["crc.bytewise_gbps"] = Metric{static_cast<double>(buf.size()) / slow / 1e9, "GB/s", ""};
  }

  const auto models = workload_models(workload);
  const Bytes dev_size = 64_GiB;

  // Protocol: encode + decode of each model's RegisterModelMsg.
  {
    double total = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const auto msg = registration(models[i], static_cast<int>(i));
      total += time_per_call([&] {
        const auto wire = core::encode(msg);
        const auto back = core::decode_register_model(wire);
        if (back.tensors.size() != msg.tensors.size()) throw Error("codec round trip lost tensors");
      });
    }
    m["probe.register_codec_us"] =
        Metric{total / static_cast<double>(models.size()) * 1e6, "us", "per model"};
  }

  // MIndex::create and plan_extents over each model's slot layout.
  {
    double create = 0.0, plan = 0.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const auto msg = registration(models[i], static_cast<int>(i));
      pmem::PmemDevice dev{"probe-pmem", dev_size, 0x100000000000ull};
      core::PmemAllocator alloc{dev, allocator_config(dev_size)};
      create += time_per_call([&] {
        auto idx = core::MIndex::create(dev, alloc, msg, 4_KiB);
        idx.destroy(alloc);
      });
      const auto idx = core::MIndex::create(dev, alloc, msg, 4_KiB);
      const auto spans = idx.chunk_spans(0);
      const core::ExtentConfig cfg{.coalesce_threshold = 4_KiB, .max_sges = 16};
      std::size_t extents = 0;
      plan += time_per_call([&] { extents += core::plan_extents(spans, idx.tensors(), cfg).size(); });
    }
    const auto n = static_cast<double>(models.size());
    m["probe.mindex_create_us"] = Metric{create / n * 1e6, "us", "per model"};
    m["probe.plan_extents_us"] = Metric{plan / n * 1e6, "us", "per model"};
  }

  // Allocator alloc + free at the fleet's size mix (tensor sizes of the
  // 128/32/8 MiB class models at 20/50/30), on a standalone device.
  {
    pmem::PmemDevice dev{"probe-pmem", dev_size, 0x100000000000ull};
    core::PmemAllocator alloc{dev, allocator_config(dev_size)};
    Rng rng{7};
    std::vector<Bytes> live;
    const double per_pair = time_per_call([&] {
      const double u = rng.uniform_real(0.0, 1.0);
      const Bytes size = u < 0.2 ? 16_MiB : u < 0.7 ? 4_MiB : 1_MiB;
      live.push_back(alloc.alloc(size));
      if (live.size() > 64) {
        const auto victim = rng.uniform(0, live.size() - 1);
        alloc.free(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
    });
    m["probe.alloc_free_ns"] = Metric{per_pair * 1e9, "ns", "alloc (+ free past 64 live)"};
  }
  return m;
}

}  // namespace portus::perfbench
