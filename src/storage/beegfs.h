// BeeGFS on fsdax PMEM — the paper's "BeeGFS-PMEM" shared-filesystem
// baseline (ver. 7.3.2 stacked on ext4-DAX).
//
// The traditional checkpoint datapath (Fig. 3/5(a)) runs through here:
// the client kernel module ships each chunk to the storage daemon over
// two-sided RPCoRDMA; the daemon handles the request on a server CPU and
// performs a DAX write into the fsdax namespace. Three kernel crossings,
// two extra copies. Per-file metadata operations (path resolution,
// permission checks) cost milliseconds on the server — the overhead that
// makes small checkpoints like ResNet50 disproportionally slow (Fig. 11's
// 9.23x).
//
// BeeGfsServer owns the shared file table + metadata lock; every
// BeeGfsMount (one per training rank) owns its own RPC channel, so
// concurrent ranks contend on the server NIC and the fsdax write channel —
// which degrades under concurrency (pmem/perf_model.h) and produces the
// Fig. 14 collapse.
#pragma once

#include <memory>
#include <string>

#include "net/cluster.h"
#include "rdma/rpc.h"
#include "sim/sync.h"
#include "storage/filesystem.h"

namespace portus::storage {

struct BeeGfsSpec {
  Bytes chunk = 1_MiB;
  // Server-side request dispatch + worker wakeup + buffer management per
  // write RPC. Calibrated so BERT's transmission stage lands at Table I's
  // 30% share (~2.1 GB/s effective single-stream).
  Duration handler_cost_per_chunk = std::chrono::microseconds{310};
  // Path resolution + permission checks on the metadata service. BeeGFS
  // MDS round trips cost milliseconds; this is what makes small checkpoints
  // (ResNet50) disproportionally slow (Fig. 11's 9.23x peak).
  Duration metadata_open_cost = std::chrono::milliseconds{12};
  Duration commit_cost = std::chrono::milliseconds{3};
  Duration read_handler_cost = std::chrono::microseconds{150};
};

class BeeGfsServer {
 public:
  // `storage_node` must have an fsdax namespace.
  BeeGfsServer(net::Node& storage_node, BeeGfsSpec spec = BeeGfsSpec{});

  net::Node& node() { return node_; }
  const BeeGfsSpec& spec() const { return spec_; }
  FileTable& files() { return files_; }
  sim::SimMutex& metadata_mutex() { return meta_mu_; }

 private:
  net::Node& node_;
  BeeGfsSpec spec_;
  FileTable files_;
  sim::SimMutex meta_mu_;
};

class BeeGfsMount final : public CheckpointStorage {
 public:
  BeeGfsMount(net::Cluster& cluster, net::Node& client_node, BeeGfsServer& server,
              std::string mount_name);

  sim::SubTask<> write_file(std::string path, Bytes size,
                            const std::vector<std::byte>* contents) override;
  sim::SubTask<std::vector<std::byte>> read_file(std::string path) override;
  sim::SubTask<Bytes> read_file_time_only(std::string path, bool gpu_direct) override;
  sim::SubTask<> remove(std::string path) override;

  bool exists(const std::string& path) const override { return server_.files().exists(path); }
  Bytes file_size(const std::string& path) const override {
    return server_.files().get(path).size;
  }
  const std::string& label() const override { return label_; }

  // Instrumentation for the Fig. 13 breakdown: cumulative time the *server*
  // spent in DAX writes on behalf of this mount.
  Duration dax_write_time() const { return dax_write_time_; }

 private:
  // RPC opcodes.
  static constexpr std::uint16_t kOpenCreate = 1;
  static constexpr std::uint16_t kWriteChunk = 2;
  static constexpr std::uint16_t kCommit = 3;
  static constexpr std::uint16_t kReadChunk = 4;
  static constexpr std::uint16_t kStat = 5;
  static constexpr std::uint16_t kRemove = 6;

  rdma::RpcHandler make_handler();

  BeeGfsServer& server_;
  std::string label_;
  std::unique_ptr<rdma::RpcChannel> rpc_;
  Duration dax_write_time_{0};
  // In-flight file assembly on the server side (per mount = per handle).
  std::string open_path_;
  Bytes open_size_ = 0;
  std::vector<std::byte> open_contents_;
  bool open_phantom_ = true;
  // The file the last stat opened for reading: chunk requests carry only
  // an offset and a length, as write chunks name no file either.
  std::string read_path_;
};

}  // namespace portus::storage
