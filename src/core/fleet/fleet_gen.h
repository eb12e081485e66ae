// Fleet workload generator: hundreds of simulated training jobs sharing a
// pool of Portus daemons, exercising the multi-tenant admission path
// (core/daemon/tenant.h) the way a production checkpoint service would see
// it — mixed model sizes, mixed priority classes, Poisson checkpoint
// cadences, Backpressure absorbed by client-side retry.
//
// Each tenant is one PortusClient driving one phantom model: registration
// negotiates the tenant's quota, then `checkpoints_per_tenant` checkpoints
// fire with exponential think time between them. The report aggregates
// per-priority-class latency percentiles and fleet throughput — the
// numbers bench/fleet_sweep.cc sweeps across fleet sizes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"
#include "core/daemon/tenant.h"
#include "dnn/model.h"
#include "net/cluster.h"

namespace portus::core::fleet {

struct FleetConfig {
  int tenants = 8;
  int checkpoints_per_tenant = 4;
  // Tenant ids are "<prefix>-NNNN", model names "<prefix>/tNNNN" — distinct
  // prefixes let several fleets share one daemon pool without colliding.
  std::string name_prefix = "fleet";
  // Priority mix: fractions of the fleet drawn as high / batch; the rest
  // are normal. Model size (128 / 32 / 8 MiB) and cadence are
  // class-correlated — prod jobs are big and checkpoint deliberately, batch
  // jobs are small and spam — so strict priority + WFQ has real asymmetry
  // to arbitrate and the batch tier is the one that saturates into
  // Backpressure.
  double high_fraction = 0.2;
  double batch_fraction = 0.3;
  Duration high_period{2'000'000'000};  // mean Poisson cadence per class
  Duration normal_period{800'000'000};
  Duration batch_period{60'000'000};
  PortusClient::RetryPolicy retry{.max_retries = 8};  // jitter seeded per tenant
  std::uint64_t seed = 0x5EEDF1EE7ull;
  // Mark models finished after the run (feeds the repacker garbage).
  bool finish_jobs = false;
};

struct ClassReport {
  int tenants = 0;
  std::uint64_t checkpoints = 0;
  Duration p50{0};
  Duration p99{0};
  Duration max{0};
};

struct FleetReport {
  ClassReport by_class[kPriorityClasses];
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;  // tenants whose op failed after all retries
  std::uint64_t retries = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t timeouts = 0;
  Bytes bytes = 0;
  Duration makespan{0};

  double aggregate_gbps() const {
    const double s = to_seconds(makespan);
    return s > 0.0 ? static_cast<double>(bytes) / s / 1e9 : 0.0;
  }
};

class FleetGen {
 public:
  // Clients ride `client_node`'s GPUs round-robin; tenant i dials
  // endpoints[i % endpoints.size()].
  FleetGen(net::Cluster& cluster, net::Node& client_node, QpRendezvous& rendezvous,
           std::vector<std::string> endpoints, FleetConfig config);

  // Drive the whole fleet to completion. Call from inside the engine; the
  // FleetGen must outlive the returned task.
  sim::SubTask<FleetReport> run();

 private:
  struct TenantJob {
    int index = 0;
    PriorityClass cls = PriorityClass::kNormal;
    std::unique_ptr<dnn::Model> model;
    std::unique_ptr<PortusClient> client;
    std::vector<Duration> latencies;
    bool failed = false;
  };

  sim::Process drive(TenantJob& job, std::uint64_t seed);

  net::Cluster& cluster_;
  net::Node& node_;
  QpRendezvous& rendezvous_;
  std::vector<std::string> endpoints_;
  FleetConfig config_;
  std::vector<std::unique_ptr<TenantJob>> jobs_;
};

}  // namespace portus::core::fleet
