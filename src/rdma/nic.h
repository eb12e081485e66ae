// RDMA-capable NIC (simulated Mellanox ConnectX-5/6, 100 Gbps InfiniBand).
//
// The port is full duplex: each NIC owns a transmit channel (`link`) and a
// receive channel (`rx`), each of `link_capacity`, and a transfer is charged
// on its source's transmit side and its sink's receive side. Flows in one
// direction share that direction's channel (max-min fair), so a READ pulled
// into a NIC never queues behind a WRITE pushed out of it. A per-WR rate cap
// reflects single-stream verbs efficiency: one RDMA READ stream tops out
// near 8.3 GB/s on this hardware (Fig. 10(a): the DRAM-to-DRAM peak). The
// fabric caps each work request at it, so several WRs in flight at once (a
// pipeline window, or other clients' ops) can push a direction toward its
// ~12 GB/s wire limit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "rdma/memory_region.h"
#include "sim/bandwidth_channel.h"
#include "sim/engine.h"

namespace portus::rdma {

struct NicSpec {
  Bandwidth link_capacity = Bandwidth::gb_per_sec(12.0);  // per direction
  Bandwidth per_wr_cap = Bandwidth::gb_per_sec(8.3);
  Duration read_latency = std::chrono::microseconds{4};    // one-sided READ setup+RTT
  Duration write_latency = std::chrono::nanoseconds{3200}; // one-sided WRITE
  Duration send_latency = std::chrono::microseconds{5};    // two-sided (CPU on both ends)
  // Doorbell economics: the per-WR setup above includes one MMIO doorbell
  // write + PCIe WQE fetch round trip (~1-2 us of the READ budget on Gen3).
  // A WR posted as part of a chained ibv_post_send list (every list entry
  // after the first) skips that — the NIC DMAs the whole WQE chain after
  // one ring — so chained WRs shave this much off their per-op latency.
  // Single-WR posts are charged exactly as before.
  Duration doorbell_latency = std::chrono::nanoseconds{1800};
  int max_sges = 30;  // gather entries per WQE (mlx5-class max_send_sge)

  static NicSpec connectx5_100g() { return NicSpec{}; }
  static NicSpec connectx6_100g() { return NicSpec{}; }
};

class RdmaNic {
 public:
  RdmaNic(sim::Engine& engine, std::string name, NicSpec spec = NicSpec::connectx5_100g())
      : engine_{engine},
        name_{std::move(name)},
        spec_{spec},
        link_{engine, spec.link_capacity, name_ + "/link"},
        rx_{engine, spec.link_capacity, name_ + "/rx"} {}
  RdmaNic(const RdmaNic&) = delete;
  RdmaNic& operator=(const RdmaNic&) = delete;

  ProtectionDomain& alloc_pd(std::string name) {
    pds_.push_back(std::make_unique<ProtectionDomain>(std::move(name)));
    return *pds_.back();
  }

  sim::Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }
  const NicSpec& spec() const { return spec_; }
  sim::BandwidthChannel& link() { return link_; }  // transmit: bytes leaving this NIC
  sim::BandwidthChannel& rx() { return rx_; }      // receive: bytes arriving at it

 private:
  sim::Engine& engine_;
  std::string name_;
  NicSpec spec_;
  sim::BandwidthChannel link_;
  sim::BandwidthChannel rx_;
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
};

}  // namespace portus::rdma
