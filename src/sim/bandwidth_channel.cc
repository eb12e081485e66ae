#include "sim/bandwidth_channel.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace portus::sim {

namespace {
// Flows with fewer remaining bytes than this are considered complete;
// guards against floating-point residue causing zero-length reschedules.
constexpr double kEpsilonBytes = 1e-6;
}  // namespace

BandwidthChannel::BandwidthChannel(Engine& engine, Bandwidth capacity, std::string name,
                                   DegradationModel degradation, NumaTopology numa)
    : engine_{engine}, capacity_{capacity}, name_{std::move(name)},
      degradation_{degradation}, numa_{numa} {
  engine_.register_resettable(this);
}

Bandwidth BandwidthChannel::locality_cap(Bandwidth flow_cap, FlowLocality loc) const {
  if (numa_.flat() || capacity_.is_unlimited()) return flow_cap;
  const double node_share =
      capacity_.bytes_per_second() / static_cast<double>(numa_.nodes);
  const double share = loc.remote ? node_share * numa_.remote_bw_factor : node_share;
  return min(flow_cap, Bandwidth::bytes_per_sec(share));
}

BandwidthChannel::~BandwidthChannel() { engine_.deregister_resettable(this); }

void BandwidthChannel::reset_waiters() noexcept {
  flows_.clear();
  ++event_generation_;  // invalidate any still-queued completion callbacks
  last_update_ = engine_.now();
}

double BandwidthChannel::effective_capacity_bps() const {
  const int n = static_cast<int>(flows_.size());
  const int excess = n > degradation_.n0 ? n - degradation_.n0 : 0;
  return capacity_.bytes_per_second() / (1.0 + degradation_.beta * excess);
}

Duration BandwidthChannel::uncontended_time(Bytes bytes, Bandwidth flow_cap) const {
  return min(capacity_, flow_cap).time_for(bytes);
}

void BandwidthChannel::start_flow(Bytes bytes, Bandwidth cap, std::coroutine_handle<> waiter) {
  settle();
  flows_.push_back(Flow{bytes, static_cast<double>(bytes), cap.bytes_per_second(), 0.0, waiter,
                        next_flow_id_++});
  assign_rates();
  schedule_next_completion();
}

void BandwidthChannel::settle() {
  const Time now = engine_.now();
  const double elapsed = to_seconds(now - last_update_);
  last_update_ = now;
  if (elapsed <= 0.0 || flows_.empty()) return;

  double aggregate = 0.0;
  for (auto it = flows_.begin(); it != flows_.end();) {
    const double moved = std::min(it->remaining_bytes, it->rate_bps * elapsed);
    it->remaining_bytes -= moved;
    total_bytes_ += moved;
    aggregate += it->rate_bps;
    if (it->remaining_bytes <= kEpsilonBytes) {
      bytes_finished_ += it->requested;
      engine_.resume_later(it->waiter);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  if (!capacity_.is_unlimited()) {
    busy_seconds_ += elapsed * std::min(1.0, aggregate / capacity_.bytes_per_second());
  }
}

void BandwidthChannel::assign_rates() {
  if (flows_.empty()) return;

  // Water-filling: hand capped flows their cap whenever the cap is below the
  // running fair share, then split the residual evenly among the rest.
  std::vector<Flow*> order;
  order.reserve(flows_.size());
  for (auto& f : flows_) order.push_back(&f);
  std::sort(order.begin(), order.end(),
            [](const Flow* a, const Flow* b) { return a->cap_bps < b->cap_bps; });

  double remaining_capacity = effective_capacity_bps();
  std::size_t remaining_flows = order.size();
  for (Flow* f : order) {
    const double fair = remaining_capacity / static_cast<double>(remaining_flows);
    f->rate_bps = std::min(f->cap_bps, fair);
    remaining_capacity -= f->rate_bps;
    --remaining_flows;
  }
}

void BandwidthChannel::schedule_next_completion() {
  if (flows_.empty()) return;

  double min_seconds = std::numeric_limits<double>::infinity();
  for (const auto& f : flows_) {
    if (f.rate_bps <= 0.0) continue;
    min_seconds = std::min(min_seconds, f.remaining_bytes / f.rate_bps);
  }
  if (!std::isfinite(min_seconds)) return;  // all flows stalled (capacity 0)

  // Round up to the next nanosecond: truncation would leave fractional
  // bytes behind and reschedule a zero-length event forever.
  const auto generation = ++event_generation_;
  engine_.schedule(from_seconds(min_seconds) + Duration{1}, [this, generation] {
    if (generation != event_generation_) return;  // superseded by a newer change
    settle();
    assign_rates();
    schedule_next_completion();
  });
}

}  // namespace portus::sim
