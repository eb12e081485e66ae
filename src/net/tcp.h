// TCP-over-IPoIB control channel.
//
// Portus Client and Daemon exchange *metadata* (model registration packets,
// "DO_CHECKPOINT", completion notifications) over a plain TCP socket running
// on IPoIB — only bulk tensor data takes the RDMA datapath. This models the
// socket as a reliable, ordered message channel with IPoIB latency and a
// modest bandwidth cost (metadata packets are small, so latency dominates).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace portus::net {

class TcpSocket {
 public:
  // One-way message latency (IPoIB hop through the IB switch).
  static constexpr Duration kLatency = std::chrono::microseconds{25};
  // Effective IPoIB streaming bandwidth (far below native verbs).
  static constexpr double kBytesPerSec = 2.5e9;

  explicit TcpSocket(sim::Engine& engine) : engine_{engine}, inbox_{engine} {}

  // Fire-and-forget reliable send: the message arrives at the peer after
  // latency + size/bandwidth. Throws Disconnected if the socket is closed.
  void send(std::vector<std::byte> message);

  // Awaitable receive; throws Disconnected when the peer closed and the
  // inbox drained.
  auto recv() { return inbox_.recv(); }

  void close();
  bool closed() const { return closed_; }

  static std::pair<std::shared_ptr<TcpSocket>, std::shared_ptr<TcpSocket>> make_pair(
      sim::Engine& engine);

 private:
  sim::Engine& engine_;
  sim::Channel<std::vector<std::byte>> inbox_;
  std::weak_ptr<TcpSocket> peer_;
  bool closed_ = false;
};

// recv_within() gave up on a silent peer.
class RecvTimeout : public Disconnected {
 public:
  using Disconnected::Disconnected;
};

// Await `socket`'s next message for at most `timeout` of virtual time (0 =
// forever). On expiry the socket is closed — the caller gives the silent
// peer up, as a real client's watchdog does — and RecvTimeout is thrown; a
// peer that hangs up first surfaces as plain Disconnected.
sim::SubTask<std::vector<std::byte>> recv_within(sim::Engine& engine,
                                                 std::shared_ptr<TcpSocket> socket,
                                                 Duration timeout);

// A named listening endpoint ("portusd:9999"). connect() completes the
// three-way handshake after one RTT and yields the client-side socket; the
// server side pops out of accept().
class TcpListener {
 public:
  explicit TcpListener(sim::Engine& engine) : engine_{engine}, backlog_{engine} {}

  sim::SubTask<std::shared_ptr<TcpSocket>> connect();
  auto accept() { return backlog_.recv(); }
  void close() { backlog_.close(); }
  bool closed() const { return backlog_.closed(); }

 private:
  sim::Engine& engine_;
  sim::Channel<std::shared_ptr<TcpSocket>> backlog_;
};

}  // namespace portus::net
