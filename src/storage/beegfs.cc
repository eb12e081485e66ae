#include "storage/beegfs.h"

#include "common/binary_io.h"

namespace portus::storage {

BeeGfsServer::BeeGfsServer(net::Node& storage_node, BeeGfsSpec spec)
    : node_{storage_node}, spec_{spec}, meta_mu_{storage_node.engine()} {
  PORTUS_CHECK_ARG(storage_node.has_fsdax(),
                   "BeeGFS server requires an fsdax PMEM namespace on the storage node");
}

BeeGfsMount::BeeGfsMount(net::Cluster& cluster, net::Node& client_node, BeeGfsServer& server,
                         std::string mount_name)
    : server_{server}, label_{std::move(mount_name)} {
  rpc_ = std::make_unique<rdma::RpcChannel>(cluster.fabric(), cluster.address_space(),
                                            client_node.nic(), server.node().nic(),
                                            label_ + "/rpc", make_handler());
}

rdma::RpcHandler BeeGfsMount::make_handler() {
  return [this](std::uint16_t op, std::vector<std::byte> req)
             -> sim::SubTask<rdma::RpcReply> {
    auto& engine = server_.node().engine();
    const auto& spec = server_.spec();
    BinaryReader r{req};
    BinaryWriter resp;
    Bytes phantom_pad = 0;

    switch (op) {
      case kOpenCreate: {
        // Namespace operations serialize on the metadata service.
        auto guard = co_await server_.metadata_mutex().lock();
        co_await engine.sleep(spec.metadata_open_cost);
        open_path_ = r.str();
        open_size_ = r.u64();
        open_phantom_ = r.u8() != 0;
        open_contents_.clear();
        if (!open_phantom_) open_contents_.reserve(open_size_);
        break;
      }
      case kWriteChunk: {
        co_await engine.sleep(spec.handler_cost_per_chunk);
        const auto n = r.u64();
        const bool has_data = r.u8() != 0;
        // DAX write into the fsdax namespace: contends with other mounts.
        const Time t0 = engine.now();
        co_await server_.node().fsdax_write_channel().transfer(n);
        dax_write_time_ += engine.now() - t0;
        if (has_data) {
          const auto payload = r.raw(n);
          open_contents_.insert(open_contents_.end(), payload.begin(), payload.end());
        }
        break;
      }
      case kCommit: {
        co_await engine.sleep(spec.commit_cost);
        server_.files().put(open_path_, open_size_,
                            open_phantom_ ? nullptr : &open_contents_);
        open_contents_.clear();
        break;
      }
      case kReadChunk: {
        co_await engine.sleep(spec.read_handler_cost);
        const auto offset = r.u64();
        const auto want = r.u64();
        const auto& entry = server_.files().get(read_path_);
        const Bytes n = std::min(want, entry.size - std::min(entry.size, offset));
        co_await server_.node().fsdax_read_channel().transfer(n);
        resp.u64(n);
        if (entry.contents.has_value() && n > 0) {
          resp.u8(1);
          resp.raw(std::span<const std::byte>{*entry.contents}.subspan(offset, n));
        } else {
          resp.u8(0);
          phantom_pad = n;  // the chunk still crosses the wire back
        }
        break;
      }
      case kStat: {  // open for reading: later chunk requests read this file
        auto guard = co_await server_.metadata_mutex().lock();
        co_await engine.sleep(spec.metadata_open_cost / 2);
        read_path_ = r.str();
        if (server_.files().exists(read_path_)) {
          resp.u8(1);
          resp.u64(server_.files().get(read_path_).size);
        } else {
          resp.u8(0);
        }
        break;
      }
      case kRemove: {
        auto guard = co_await server_.metadata_mutex().lock();
        co_await engine.sleep(spec.metadata_open_cost);
        server_.files().remove(r.str());
        break;
      }
      default:
        throw InvalidArgument("unknown BeeGFS RPC opcode");
    }
    co_return rdma::RpcReply{resp.take(), phantom_pad};
  };
}

sim::SubTask<> BeeGfsMount::write_file(std::string path, Bytes size,
                                       const std::vector<std::byte>* contents) {
  const auto& spec = server_.spec();
  {
    BinaryWriter open_req;
    open_req.str(path);
    open_req.u64(size);
    open_req.u8(contents == nullptr ? 1 : 0);
    auto open_wire = open_req.take();
    co_await rpc_->call(kOpenCreate, std::move(open_wire));
  }
  Bytes done = 0;
  while (done < size) {
    const Bytes n = std::min(spec.chunk, size - done);
    BinaryWriter chunk_req;
    chunk_req.u64(n);
    Bytes phantom_pad = 0;
    if (contents != nullptr) {
      chunk_req.u8(1);
      chunk_req.raw(std::span<const std::byte>{*contents}.subspan(done, n));
    } else {
      chunk_req.u8(0);
      phantom_pad = n;  // the chunk still crosses the wire
    }
    auto chunk_wire = chunk_req.take();
    co_await rpc_->call(kWriteChunk, std::move(chunk_wire), phantom_pad);
    done += n;
  }
  co_await rpc_->call(kCommit, {});
}

sim::SubTask<std::vector<std::byte>> BeeGfsMount::read_file(std::string path) {
  const auto& spec = server_.spec();
  {  // open: path resolution on the metadata service, once per file
    BinaryWriter stat_req;
    stat_req.str(path);
    auto stat_wire = stat_req.take();
    co_await rpc_->call(kStat, std::move(stat_wire));
  }
  std::vector<std::byte> out;
  Bytes offset = 0;
  for (;;) {
    BinaryWriter req;
    req.u64(offset);
    req.u64(spec.chunk);
    auto req_wire = req.take();
    auto resp_bytes = co_await rpc_->call(kReadChunk, std::move(req_wire));
    BinaryReader resp{resp_bytes};
    const Bytes n = resp.u64();
    if (n == 0) break;
    if (resp.u8() != 0) {
      const auto payload = resp.raw(n);
      out.insert(out.end(), payload.begin(), payload.end());
    }
    offset += n;
    if (offset >= file_size(path)) break;
  }
  co_return out;
}

sim::SubTask<Bytes> BeeGfsMount::read_file_time_only(std::string path, bool /*gpu_direct*/) {
  const auto& spec = server_.spec();
  const Bytes size = file_size(path);  // throws NotFound
  {  // open: path resolution on the metadata service, once per file
    BinaryWriter stat_req;
    stat_req.str(path);
    auto stat_wire = stat_req.take();
    co_await rpc_->call(kStat, std::move(stat_wire));
  }
  Bytes offset = 0;
  while (offset < size) {
    BinaryWriter req;
    req.u64(offset);
    req.u64(spec.chunk);
    auto req_wire = req.take();
    auto resp_bytes = co_await rpc_->call(kReadChunk, std::move(req_wire));
    BinaryReader resp{resp_bytes};
    offset += resp.u64();
  }
  co_return size;
}

sim::SubTask<> BeeGfsMount::remove(std::string path) {
  BinaryWriter req;
  req.str(path);
  auto wire = req.take();
  co_await rpc_->call(kRemove, std::move(wire));
}

}  // namespace portus::storage
