// Shared scaffolding for the per-figure benchmark binaries.
//
// Every binary reproduces one table/figure of the paper: it builds the
// simulated testbed, drives the relevant workload, and prints the same rows
// or series the paper reports, with the paper's reference values alongside
// (see EXPERIMENTS.md for the full comparison).
#pragma once

#include <cmath>
#include <concepts>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "baselines/checkfreq.h"
#include "baselines/torch_save.h"
#include "common/strformat.h"
#include "core/async_coordinator.h"
#include "core/client.h"
#include "core/daemon/daemon.h"
#include "dnn/model_zoo.h"
#include "dnn/parallel.h"
#include "dnn/training.h"
#include "net/cluster.h"
#include "storage/beegfs.h"
#include "storage/ext4_nvme.h"

namespace portus::bench {

// One fully wired testbed: paper cluster + Portus daemon + BeeGFS server +
// local NVMe filesystems on the compute nodes.
struct World {
  sim::Engine engine;
  std::unique_ptr<net::Cluster> cluster = net::Cluster::paper_testbed(engine);
  core::QpRendezvous rendezvous;
  std::unique_ptr<core::PortusDaemon> daemon;
  std::unique_ptr<storage::BeeGfsServer> beegfs_server;
  std::unique_ptr<storage::Ext4NvmeFs> volta_nvme;
  std::unique_ptr<storage::Ext4NvmeFs> ampere_nvme;

  explicit World(int daemon_workers = 8)
      : World(core::PortusDaemon::Config{.workers = daemon_workers}) {}

  explicit World(core::PortusDaemon::Config config) {
    daemon = std::make_unique<core::PortusDaemon>(*cluster, cluster->node("server"),
                                                  rendezvous, std::move(config));
    daemon->start();
    beegfs_server = std::make_unique<storage::BeeGfsServer>(cluster->node("server"));
    volta_nvme = std::make_unique<storage::Ext4NvmeFs>(engine, "volta/ext4-nvme");
    ampere_nvme = std::make_unique<storage::Ext4NvmeFs>(engine, "ampere/ext4-nvme");
  }
  ~World() { engine.shutdown(); }

  net::Node& volta() { return cluster->node("client-volta"); }
  net::Node& ampere() { return cluster->node("client-ampere"); }
  net::Node& server() { return cluster->node("server"); }

  // Run one coroutine to completion on a fresh slice of virtual time.
  void run(sim::Process p) {
    auto proc = engine.spawn(std::move(p));
    engine.run();
    proc.check();  // surface failures loudly
  }
};

// One job on a fresh World: a zoo model with phantom payloads (the benches
// time; they move no bytes) on client-volta's GPU 0, and its Portus client.
struct PortusJob {
  explicit PortusJob(const dnn::ModelSpec& spec);

  World world;
  gpu::GpuDevice& gpu = world.volta().gpu(0);
  dnn::Model model;
  core::PortusClient client{*world.cluster, world.volta(), gpu, world.rendezvous};
};

struct PortusTimes {
  Duration register_time{0};
  Duration checkpoint{0};
  Duration restore{0};
};

// A PortusJob connects, registers, checkpoints once and restores.
PortusTimes time_portus(const dnn::ModelSpec& spec);

// The torch.save baselines' storage: BeeGFS-PMEM or client-volta's ext4-NVMe.
enum class Fs { kBeegfs, kNvme };

struct TorchTimes {
  baselines::TorchSaveCheckpointer::CheckpointTimings checkpoint;
  Duration dax{0};      // BeeGFS: the server's DAX writes within checkpoint.fs_write
  Duration restore{0};  // torch.load with GPUDirect Storage
};

// torch.save of a phantom `spec` on client-volta's GPU 0 of a fresh World to
// /ckpt/<model>.ptck on `fs`, then its restore.
TorchTimes time_torch(const dnn::ModelSpec& spec, Fs fs);

// A GPT job shard: one rank's model + its Portus client or BeeGFS mount.
struct GptRank {
  dnn::ShardSpec shard;
  gpu::GpuDevice* gpu = nullptr;
  net::Node* node = nullptr;
  std::unique_ptr<dnn::Model> model;
  std::unique_ptr<core::PortusClient> portus;
  std::unique_ptr<storage::BeeGfsMount> beegfs;
};

// Partition `spec` TP=8 x PP=2 across the two client nodes (8 GPUs each in
// the paper's GPT runs) and connect the chosen backends.
std::vector<GptRank> make_gpt_ranks(World& world, const dnn::ModelSpec& spec,
                                    bool with_portus, bool with_beegfs);

// Register all ranks with the daemon (must precede checkpoints).
sim::Process register_all(std::vector<GptRank>& ranks);

// Concurrent checkpoint of every rank's shard; returns the slowest rank's time.
sim::SubTask<Duration> checkpoint_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration);
// Concurrent restore (Portus).
sim::SubTask<Duration> restore_all(sim::Engine& engine, std::vector<GptRank>& ranks);

// Concurrent torch.save of every rank's shard to BeeGFS; slowest rank's time.
sim::SubTask<Duration> torch_save_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration);

// A column's kind fixes how its cells render. Counts, ns and bytes are exact
// integers in JSON and print raw, via format_duration and via format_bytes;
// reals print with `digits` decimals (-1: the shortest exact form) and
// `suffix` ("2.53x"); flags print yes/no.
enum Kind { kCount, kNs, kBytes, kReal, kText, kFlag };

struct Column {
  Column(std::string key, Kind kind = kCount, int digits = 2, std::string suffix = {})
      : key{std::move(key)}, kind{kind}, digits{digits}, suffix{std::move(suffix)} {}
  std::string key;  // JSON key; the screen header drops a _ns/_bytes suffix
  Kind kind;
  int digits;
  std::string suffix;
};

// An integer (count or bytes), a Duration (ns), a double, text or a flag.
class Cell {
 public:
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Cell(T v) : v_{static_cast<std::uint64_t>(v)} {
    if constexpr (std::is_signed_v<T>) PORTUS_CHECK_ARG(v >= 0, "a count cannot be negative");
  }
  Cell(bool v) : v_{v} {}
  Cell(Duration v) : v_{v} {}
  Cell(double v) : v_{v} {}
  Cell(std::string v) : v_{std::move(v)} {}
  Cell(const char* v) : v_{std::string{v}} {}

  Kind kind() const;
  std::string screen(const Column& c) const;
  std::string json() const;

 private:
  std::variant<std::uint64_t, Duration, double, std::string, bool> v_;
};

struct Table {
  std::string name;
  std::string title;  // printed above the table when set
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows;

  Table& add(std::vector<Cell> row);  // one cell per column, of its kind
};

// A bench's one output path: run parameters, named flat tables and
// acceptance gates. finish() prints the parameters and tables, writes
//   {"bench", "schema": 1, "smoke", "params": {key: value},
//    "tables": {name: [{key: value, ...}, ...]}}
// to BENCH_<artifact>.json, or BENCH_<artifact>_smoke.json for a --smoke
// run, in $PORTUS_BENCH_RESULTS (default `bench/results/` under the working
// directory), prints `FAIL: <message>` per failed gate or "<bench>
// acceptance checks passed", and returns the exit code.
class Report {
 public:
  Report(std::string bench, std::string artifact, bool smoke);
  // A paper binary: no --smoke run, and its artifact is named after it.
  explicit Report(std::string bench) : Report(bench, bench, false) {}

  void param(std::string key, Cell value);
  Table& table(std::string name, std::vector<Column> columns, std::string title = {});
  void require(bool ok, std::string message) {
    if (!ok) failed_.push_back(std::move(message));
  }
  // Gates `measured` within `band` of the paper's value, in one unit.
  void require_band(const std::string& what, double measured, double paper, double band) {
    require(std::abs(measured - paper) <= band,
            strf("{} {:.4g} is outside the paper's {:.4g} +- {:.4g}", what, measured, paper, band));
  }

  std::string path() const;
  int finish();

 private:
  std::string bench_;
  std::string artifact_;
  bool smoke_;
  Table params_;
  std::deque<Table> tables_;  // a deque keeps table() references valid
  std::vector<std::string> failed_;
};

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "paper reference: " << paper_ref << "\n\n";
}

inline double ratio(Duration a, Duration b) { return to_seconds(a) / to_seconds(b); }

}  // namespace portus::bench
