#include "net/tcp.h"

#include "sim/task.h"

namespace portus::net {

void TcpSocket::send(std::vector<std::byte> message) {
  if (closed_) throw Disconnected("send on closed TCP socket");
  auto peer = peer_.lock();
  if (!peer || peer->closed_) throw Disconnected("TCP peer is gone");

  const auto transfer = from_seconds(static_cast<double>(message.size()) / kBytesPerSec);
  engine_.schedule(kLatency + transfer,
                   [peer, msg = std::move(message)]() mutable {
                     if (!peer->closed_) peer->inbox_.push(std::move(msg));
                   });
}

void TcpSocket::close() {
  if (closed_) return;
  closed_ = true;
  inbox_.close();
  if (auto peer = peer_.lock(); peer && !peer->closed_) {
    // FIN after the usual latency: the peer's pending recv fails once the
    // inbox drains.
    engine_.schedule(kLatency, [peer] {
      if (!peer->closed_) {
        peer->closed_ = true;
        peer->inbox_.close();
      }
    });
  }
}

std::pair<std::shared_ptr<TcpSocket>, std::shared_ptr<TcpSocket>> TcpSocket::make_pair(
    sim::Engine& engine) {
  auto a = std::make_shared<TcpSocket>(engine);
  auto b = std::make_shared<TcpSocket>(engine);
  a->peer_ = b;
  b->peer_ = a;
  return {a, b};
}

sim::SubTask<std::shared_ptr<TcpSocket>> TcpListener::connect() {
  co_await engine_.sleep(TcpSocket::kLatency * 2);  // SYN / SYN-ACK
  auto [client_side, server_side] = TcpSocket::make_pair(engine_);
  backlog_.push(std::move(server_side));
  co_return client_side;
}

sim::SubTask<std::vector<std::byte>> recv_within(sim::Engine& engine,
                                                 std::shared_ptr<TcpSocket> socket,
                                                 Duration timeout) {
  if (timeout <= Duration{0}) {
    auto reply = co_await socket->recv();
    co_return reply;
  }
  // The timer outlives the wait (it holds the socket by shared_ptr), so a
  // late fire after the answer arrived is a no-op.
  struct Watch {
    bool done = false;
    bool fired = false;
  };
  auto watch = std::make_shared<Watch>();
  engine.schedule(timeout, [socket, watch] {
    if (!watch->done) {
      watch->fired = true;
      socket->close();
    }
  });
  try {
    auto reply = co_await socket->recv();
    watch->done = true;
    co_return reply;
  } catch (const Disconnected&) {
    watch->done = true;
    if (watch->fired) throw RecvTimeout("no answer within the timeout");
    throw;
  }
}

}  // namespace portus::net
