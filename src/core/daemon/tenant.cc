#include "core/daemon/tenant.h"

#include <algorithm>

#include "common/strformat.h"

namespace portus::core {

const char* to_string(PriorityClass c) {
  switch (c) {
    case PriorityClass::kHigh: return "high";
    case PriorityClass::kNormal: return "normal";
    case PriorityClass::kBatch: return "batch";
  }
  return "?";
}

PriorityClass priority_from_wire(std::uint8_t v) {
  return v <= 2 ? static_cast<PriorityClass>(v) : PriorityClass::kBatch;
}

namespace {

// Clamp a requested quota axis against the policy ceiling. 0 anywhere means
// "no opinion": a zero request takes the ceiling, a zero ceiling grants the
// request verbatim.
Bytes clamp_grant(Bytes requested, Bytes ceiling) {
  if (requested == 0) return ceiling;
  if (ceiling == 0) return requested;
  return std::min(requested, ceiling);
}

}  // namespace

// --- TenantRegistry ---------------------------------------------------------

Tenant& TenantRegistry::admit_tenant(const std::string& id, PriorityClass priority,
                                     Bytes requested_capacity, Bytes requested_rate) {
  auto [it, created] = tenants_.try_emplace(id);
  Tenant& t = it->second;
  if (created) {
    t.id = id;
    t.quota = defaults_.quota;
  }
  t.quota.priority = priority;
  t.quota.capacity_bytes = clamp_grant(requested_capacity, defaults_.quota.capacity_bytes);
  t.quota.rate_bytes_per_sec = clamp_grant(requested_rate, defaults_.quota.rate_bytes_per_sec);
  return t;
}

Tenant* TenantRegistry::find(const std::string& id) {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

Tenant* TenantRegistry::owner_of(const std::string& model_name) {
  const auto it = charges_.find(model_name);
  return it == charges_.end() ? nullptr : it->second.tenant;
}

bool TenantRegistry::charge(Tenant& tenant, const std::string& model_name, Bytes bytes) {
  if (charges_.contains(model_name)) return false;  // re-registration
  if (tenant.quota.capacity_bytes != 0 &&
      tenant.usage.charged_bytes + bytes > tenant.quota.capacity_bytes) {
    ++tenant.usage.quota_rejects;
    throw ResourceExhausted(
        strf("tenant {} over PMEM capacity quota: {} held + {} requested > {} granted",
             tenant.id, format_bytes(tenant.usage.charged_bytes), format_bytes(bytes),
             format_bytes(tenant.quota.capacity_bytes)));
  }
  tenant.usage.charged_bytes += bytes;
  ++tenant.usage.models;
  charges_.emplace(model_name, Charge{&tenant, bytes});
  return true;
}

void TenantRegistry::uncharge(const std::string& model_name) {
  const auto it = charges_.find(model_name);
  if (it == charges_.end()) return;
  it->second.tenant->usage.charged_bytes -= it->second.bytes;
  --it->second.tenant->usage.models;
  charges_.erase(it);
}

std::vector<const Tenant*> TenantRegistry::tenants() const {
  std::vector<const Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) out.push_back(&t);
  return out;  // std::map iterates id-sorted
}

// --- AdmissionController ----------------------------------------------------

AdmissionController::AdmissionController(sim::Engine& engine, Config config)
    : engine_{engine}, config_{config} {
  PORTUS_CHECK_ARG(config_.max_inflight >= 1, "admission max_inflight must be >= 1");
  engine.register_resettable(this);
}

AdmissionController::~AdmissionController() { engine_.deregister_resettable(this); }

void AdmissionController::reset_waiters() noexcept {
  for (auto& q : queues_) q.clear();
  // Tickets held by destroyed coroutine frames release through finish(),
  // which tolerates the post-reset state (counts clamp at zero).
  inflight_ = 0;
}

std::size_t AdmissionController::queued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

bool AdmissionController::can_grant_now() const {
  return !paused_ && inflight_ < config_.max_inflight && queued() == 0;
}

double AdmissionController::stamp(Tenant& tenant, Bytes bytes) {
  const double weight = std::max(tenant.quota.share, 1e-9);
  const double start = std::max(vtime_, tenant.vfinish);
  tenant.vfinish = start + static_cast<double>(bytes) / weight;
  return tenant.vfinish;
}

void AdmissionController::grant(Tenant& tenant) {
  ++inflight_;
  ++tenant.usage.admitted;
  ++stats_.admitted;
}

void AdmissionController::finish() {
  if (inflight_ > 0) --inflight_;
  dispatch();
}

void AdmissionController::Ticket::release() {
  if (ctrl_ == nullptr) return;
  std::exchange(ctrl_, nullptr)->finish();
}

void AdmissionController::dispatch() {
  while (!paused_ && inflight_ < config_.max_inflight) {
    // Strict priority across classes (the first non-empty queue wins
    // outright); start-time-fair within a class: min virtual finish tag,
    // FIFO on ties.
    const auto q = std::find_if(std::begin(queues_), std::end(queues_),
                                [](const auto& queue) { return !queue.empty(); });
    if (q == std::end(queues_)) return;
    const auto best =
        std::min_element(q->begin(), q->end(), [](const Waiter& a, const Waiter& b) {
          return a.vft < b.vft || (a.vft == b.vft && a.seq < b.seq);
        });
    vtime_ = std::max(vtime_, best->vft);
    grant(*best->tenant);
    const auto handle = best->handle;
    q->erase(best);
    engine_.resume_later(handle);
  }
}

struct AdmissionController::WaitAwaitable {
  AdmissionController& ctrl;
  Tenant& tenant;
  double vft;

  bool await_ready() const noexcept {
    if (!ctrl.can_grant_now()) return false;
    ctrl.vtime_ = std::max(ctrl.vtime_, vft);
    ctrl.grant(tenant);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) {
    const int cls = static_cast<int>(tenant.quota.priority);
    ctrl.queues_[cls].push_back(
        Waiter{.handle = h, .tenant = &tenant, .vft = vft, .seq = ctrl.next_seq_++});
  }
  void await_resume() const noexcept {}  // slot transferred by dispatch()
};

sim::SubTask<AdmissionController::Ticket> AdmissionController::admit(Tenant& tenant,
                                                                     Bytes bytes,
                                                                     std::string_view op) {
  const int cls = static_cast<int>(tenant.quota.priority);
  // Bounded queue: reject instead of building unbounded backlog. Checked
  // before pacing so a rejected op costs the client one cheap roundtrip.
  if (!can_grant_now() && queues_[cls].size() >= config_.queue_depth) {
    ++stats_.rejected;
    ++tenant.usage.rejected;
    throw Backpressure(strf("tenant {} {} admission queue full ({} deep)", tenant.id,
                            to_string(tenant.quota.priority), config_.queue_depth));
  }

  // Token-bucket pacing: burn the tenant's own time before competing for a
  // slot, so a paced tenant never occupies WR budget while throttled. The
  // bucket is one op deep.
  if (tenant.quota.rate_bytes_per_sec > 0) {
    const double rate = static_cast<double>(tenant.quota.rate_bytes_per_sec);
    const double burst = static_cast<double>(bytes);
    const Time now = engine_.now();
    tenant.tokens = std::min(burst, tenant.tokens + rate * to_seconds(now - tenant.bucket_at));
    tenant.bucket_at = now;
    tenant.tokens -= static_cast<double>(bytes);
    if (tenant.tokens < 0.0) {
      const auto debt = from_seconds(-tenant.tokens / rate);
      ++stats_.paced;
      tenant.usage.paced_total += debt;
      co_await engine_.sleep(debt);
    }
  }

  const double vft = stamp(tenant, bytes);
  const Time t0 = engine_.now();
  auto span = config_.tracer != nullptr && !can_grant_now()
                  ? config_.tracer->span(strf("admit {}", op), config_.track)
                  : sim::Tracer::Span{};
  co_await WaitAwaitable{*this, tenant, vft};
  span.end();
  const auto waited = engine_.now() - t0;
  stats_.queue_wait_total += waited;
  stats_.queue_wait_max = std::max(stats_.queue_wait_max, waited);
  tenant.usage.queue_wait_max = std::max(tenant.usage.queue_wait_max, waited);
  co_return Ticket{this};
}

void AdmissionController::pause() {
  if (paused_) return;
  paused_ = true;
  pause_began_ = engine_.now();
  ++stats_.pauses;
}

void AdmissionController::resume() {
  if (!paused_) return;
  paused_ = false;
  stats_.paused_total += engine_.now() - pause_began_;
  dispatch();
}

}  // namespace portus::core
