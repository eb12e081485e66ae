// Multi-tenant QoS for the Portus daemon: quotas, priority classes, and an
// admission controller in front of the checkpoint hot path.
//
// A production checkpoint service fronts an entire training fleet
// (DataStates-LLM multiplexes many model streams; FastPersist schedules
// write parallelism explicitly) — free-for-all admission lets one noisy
// batch job head-of-line-block everyone's p99. This layer gives the daemon:
//
//   * TenantRegistry — per-tenant identity with a granted quota (PMEM
//     capacity bytes charged at registration, token-bucket byte rate, WFQ
//     weight, priority class). Registrations negotiate: the client
//     *requests*, the registry clamps against daemon policy and answers
//     with the grant (protocol v5).
//
//   * AdmissionController — every checkpoint acquires an admission Ticket
//     before it may occupy a daemon worker or post a single WR:
//       1. token-bucket pacing (a tenant over its byte rate sleeps off its
//          debt *before* competing for a slot; the bucket holds one op's
//          bytes);
//       2. strict priority across the three classes, weighted fair queuing
//          (start-time-fair virtual finish tags) within a class;
//       3. a bounded per-class queue — when full, the op is rejected with
//          Backpressure, which the client retries with jittered
//          exponential backoff (PortusClient::RetryPolicy).
//     pause()/resume() is the online repacker's relocation barrier: a
//     paused controller stops granting, in-flight tickets drain naturally,
//     and the repacker's bounded maintenance window runs without new
//     checkpoints racing the allocator rewrite.
//
// Everything here is daemon-side DRAM bookkeeping: nothing touches PMEM,
// so crash recovery is unaffected (quotas re-negotiate on re-registration).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "core/protocol.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace portus::core {

enum class PriorityClass : std::uint8_t { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kPriorityClasses = 3;

const char* to_string(PriorityClass c);
// Wire u8 -> class; out-of-range values (a newer client's future class)
// demote to kBatch rather than faulting the registration.
PriorityClass priority_from_wire(std::uint8_t v);

struct TenantQuota {
  Bytes capacity_bytes = 0;      // PMEM the tenant may hold; 0 = unlimited
  Bytes rate_bytes_per_sec = 0;  // token-bucket refill; 0 = unpaced
  double share = 1.0;            // WFQ weight within the priority class
  PriorityClass priority = PriorityClass::kNormal;
};

struct TenantUsage {
  Bytes charged_bytes = 0;  // 2x the registered payload of each model held
  std::uint64_t models = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;       // Backpressure answers
  std::uint64_t quota_rejects = 0;  // registrations denied over capacity
  Duration queue_wait_max{0};
  Duration paced_total{0};  // token-bucket stalls
};

// One tenant's full state. Lives in the registry's node-based map, so the
// address is stable for the lifetime of the daemon.
struct Tenant {
  std::string id;
  TenantQuota quota;
  TenantUsage usage;
  // Token bucket (negative = debt the next op sleeps off).
  double tokens = 0.0;
  Time bucket_at{0};
  // WFQ bookkeeping: virtual finish tag of this tenant's last admission,
  // in weighted-byte virtual time.
  double vfinish = 0.0;
};

class TenantRegistry {
 public:
  // Policy ceiling applied when granting quotas: a tenant's request is
  // clamped against these (0 = no ceiling on that axis).
  struct Defaults {
    TenantQuota quota;
  };

  explicit TenantRegistry(Defaults defaults) : defaults_{std::move(defaults)} {}
  TenantRegistry() : TenantRegistry(Defaults{}) {}

  // Find-or-create the tenant and (re)negotiate its grant: requested
  // capacity/rate are clamped to the policy ceiling; 0 requests take the
  // policy default outright. Priority is taken as requested.
  Tenant& admit_tenant(const std::string& id, PriorityClass priority,
                       Bytes requested_capacity, Bytes requested_rate);

  Tenant* find(const std::string& id);
  // The tenant a registered model is charged to (nullptr if unknown).
  Tenant* owner_of(const std::string& model_name);

  // Capacity accounting. The registry owns each model's charge: charge()
  // bills `bytes` of PMEM for `model_name` at registration time and throws
  // ResourceExhausted when the tenant would exceed its granted capacity.
  // It returns true only when it billed: a model already charged stays
  // billed to that tenant, at that amount, and is not billed again.
  // uncharge() refunds exactly what the model was billed (when the
  // repacker reclaims its slots, or a registration fails after billing)
  // and is a no-op for an uncharged model.
  bool charge(Tenant& tenant, const std::string& model_name, Bytes bytes);
  void uncharge(const std::string& model_name);

  std::vector<const Tenant*> tenants() const;  // sorted by id (render order)
  std::size_t size() const { return tenants_.size(); }

 private:
  struct Charge {
    Tenant* tenant = nullptr;
    Bytes bytes = 0;
  };

  Defaults defaults_;
  std::map<std::string, Tenant> tenants_;  // node-based: stable addrs
  std::map<std::string, Charge> charges_;  // model -> who was billed, how much
};

class AdmissionController final : public sim::Resettable {
 public:
  struct Config {
    int max_inflight = 8;            // WR-slot budget across all tenants
    std::uint32_t queue_depth = 64;  // bounded queue per priority class
    // When set, an op that must queue for its slot records an "admit <op>"
    // span on `track`, closed at the grant: exactly the wait
    // Stats::queue_wait_total counts (pacing is not in it).
    sim::Tracer* tracer = nullptr;
    std::string track{};
  };

  // Pacing hint a Backpressure answer carries (retry_after_ns).
  static constexpr Duration kRetryAfter{2'000'000};  // 2 ms

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;  // Backpressure throws
    std::uint64_t paced = 0;     // admissions that slept on the token bucket
    Duration queue_wait_total{0};
    Duration queue_wait_max{0};
    std::uint64_t pauses = 0;  // online-repack barriers taken
    Duration paused_total{0};
  };

  AdmissionController(sim::Engine& engine, Config config);
  ~AdmissionController();
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  void reset_waiters() noexcept override;

  // Move-only RAII admission slot: destruction releases the slot and
  // dispatches the next eligible waiter.
  class [[nodiscard]] Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept : ctrl_{std::exchange(o.ctrl_, nullptr)} {}
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        release();
        ctrl_ = std::exchange(o.ctrl_, nullptr);
      }
      return *this;
    }
    ~Ticket() { release(); }
    void release();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* c) : ctrl_{c} {}
    AdmissionController* ctrl_ = nullptr;
  };

  // Await admission for an op moving `bytes` (`op` names it in the
  // trace). Throws Backpressure immediately when the tenant's class queue
  // is at its depth bound; otherwise paces on the token bucket, then waits
  // for a slot in strict-priority / WFQ order.
  sim::SubTask<Ticket> admit(Tenant& tenant, Bytes bytes, std::string_view op = {});

  // Online-repack relocation barrier: a paused controller grants nothing
  // (arrivals queue or bounce off the depth bound); resume() re-dispatches.
  void pause();
  void resume();
  bool paused() const { return paused_; }

  int inflight() const { return inflight_; }
  std::size_t queued() const;
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Tenant* tenant = nullptr;
    double vft = 0.0;  // virtual finish tag (WFQ key within the class)
    std::uint64_t seq = 0;
  };
  struct WaitAwaitable;

  bool can_grant_now() const;
  // Tag the admission in weighted-byte virtual time and advance the
  // tenant's finish tag.
  double stamp(Tenant& tenant, Bytes bytes);
  void grant(Tenant& tenant);
  void finish();    // Ticket release path
  void dispatch();  // hand free slots to the best waiters

  sim::Engine& engine_;
  Config config_;
  Stats stats_;
  std::deque<Waiter> queues_[kPriorityClasses];
  int inflight_ = 0;
  bool paused_ = false;
  Time pause_began_{0};
  double vtime_ = 0.0;  // global WFQ virtual time (weighted bytes served)
  std::uint64_t next_seq_ = 0;
};

}  // namespace portus::core
