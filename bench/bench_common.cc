#include "bench_common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

namespace portus::bench {

Kind Cell::kind() const {
  constexpr Kind kinds[] = {kCount, kNs, kReal, kText, kFlag};
  return kinds[v_.index()];
}

std::string Cell::screen(const Column& c) const {
  if (const auto* n = std::get_if<std::uint64_t>(&v_)) {
    return c.kind == kBytes ? format_bytes(*n) : strf("{}", *n);
  }
  if (const auto* d = std::get_if<Duration>(&v_)) return format_duration(*d);
  if (const auto* r = std::get_if<double>(&v_)) {
    return c.digits < 0 ? json() : strf(strf("{{:.{}f}}", c.digits), *r) + c.suffix;
  }
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? "yes" : "no";
  return std::get<std::string>(v_);
}

std::string Cell::json() const {
  if (const auto* n = std::get_if<std::uint64_t>(&v_)) return strf("{}", *n);
  if (const auto* d = std::get_if<Duration>(&v_)) return strf("{}", d->count());
  if (const auto* r = std::get_if<double>(&v_)) {
    char buf[32];  // the shortest form that reads back as the same double
    return std::isfinite(*r) ? std::string{buf, std::to_chars(buf, buf + 32, *r).ptr} : "null";
  }
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? "true" : "false";
  std::string out = "\"";
  for (const char c : std::get<std::string>(v_)) {
    if (static_cast<unsigned char>(c) < 0x20) {
      out += strf("\\u{:04x}", static_cast<unsigned>(c));
    } else {
      out += (c == '"' || c == '\\') ? std::string{'\\', c} : std::string{c};
    }
  }
  return out + "\"";
}

Table& Table::add(std::vector<Cell> row) {
  PORTUS_CHECK_ARG(row.size() == columns.size(), "table " + name + ": one cell per column");
  for (std::size_t i = 0; i < row.size(); ++i) {
    PORTUS_CHECK_ARG(row[i].kind() == (columns[i].kind == kBytes ? kCount : columns[i].kind),
                     "table " + name + ": a cell of another kind in " + columns[i].key);
  }
  rows.push_back(std::move(row));
  return *this;
}

Report::Report(std::string bench, std::string artifact, bool smoke)
    : bench_{std::move(bench)}, artifact_{std::move(artifact)}, smoke_{smoke} {
  params_.rows.emplace_back();
}

void Report::param(std::string key, Cell value) {
  params_.columns.emplace_back(std::move(key), value.kind(), /*digits=*/-1);
  params_.rows.front().push_back(std::move(value));
}

Table& Report::table(std::string name, std::vector<Column> columns, std::string title) {
  return tables_.emplace_back(Table{std::move(name), std::move(title), std::move(columns), {}});
}

std::string Report::path() const {
  namespace fs = std::filesystem;
  const char* env = std::getenv("PORTUS_BENCH_RESULTS");
  const fs::path dir =
      env != nullptr && *env != '\0' ? fs::path{env} : fs::path{"bench"} / "results";
  std::error_code ec;
  fs::create_directories(dir, ec);  // best effort; finish() checks the write
  return (dir / strf("BENCH_{}{}.json", artifact_, smoke_ ? "_smoke" : "")).string();
}

int Report::finish() {
  std::vector<const Table*> shown;
  if (!params_.columns.empty()) shown.push_back(&params_);
  for (const auto& t : tables_) shown.push_back(&t);
  for (const Table* t : shown) {
    std::cout << (t == shown.front() ? "" : "\n") << (t->title.empty() ? "" : t->title + "\n");
    std::vector<std::vector<std::string>> cells(1);
    std::string align;
    for (const auto& c : t->columns) {
      const std::string unit = c.kind == kNs ? "_ns" : c.kind == kBytes ? "_bytes" : "";
      const std::size_t cut = c.key.ends_with(unit) ? unit.size() : 0;
      cells.front().push_back(c.key.substr(0, c.key.size() - cut));
      align += c.kind == kText ? '<' : '>';
    }
    for (const auto& row : t->rows) {
      auto& line = cells.emplace_back();
      for (std::size_t i = 0; i < row.size(); ++i) line.push_back(row[i].screen(t->columns[i]));
    }
    std::cout << format_table(cells, align);
  }

  const auto json_row = [](const Table& t, const std::vector<Cell>& row) {
    std::string out;
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += strf("{}{}: {}", i == 0 ? "" : ", ", Cell{t.columns[i].key}.json(), row[i].json());
    }
    return "{" + out + "}";
  };
  std::string json = strf("{{\n  \"bench\": {},\n  \"schema\": 1,\n  \"smoke\": {},\n  "
                          "\"params\": {},\n  \"tables\": {{",
                          Cell{bench_}.json(), smoke_, json_row(params_, params_.rows.front()));
  for (const auto& t : tables_) {
    json += strf("{}\n    {}: [", &t == &tables_.front() ? "" : ",", Cell{t.name}.json());
    for (const auto& row : t.rows) {
      json += strf("{}\n      {}", &row == &t.rows.front() ? "" : ",", json_row(t, row));
    }
    json += "\n    ]";
  }
  const auto file = path();
  std::ofstream out{file, std::ios::trunc};
  out << json << "\n  }\n}\n";
  out.close();
  require(!out.fail(), "could not write " + file);
  if (!out.fail()) std::cout << "\nwrote " << file << "\n";

  for (const auto& message : failed_) std::cerr << "FAIL: " << message << "\n";
  if (!failed_.empty()) return 1;
  std::string name = bench_;
  std::replace(name.begin(), name.end(), '_', ' ');
  std::cout << name << " acceptance checks passed\n";
  return 0;
}

PortusJob::PortusJob(const dnn::ModelSpec& spec)
    : model{dnn::ModelZoo::create_from_spec(gpu, spec, {.force_phantom = true})} {}

PortusTimes time_portus(const dnn::ModelSpec& spec) {
  PortusJob job{spec};
  PortusTimes out;
  job.world.run([](PortusJob& j, PortusTimes& t) -> sim::Process {
    const auto& engine = j.world.engine;
    co_await j.client.connect();
    Time t0 = engine.now();
    co_await j.client.register_model(j.model);
    t.register_time = engine.now() - t0;
    t0 = engine.now();
    co_await j.client.checkpoint(j.model, 1);
    t.checkpoint = engine.now() - t0;
    t0 = engine.now();
    co_await j.client.restore(j.model);
    t.restore = engine.now() - t0;
  }(job, out));
  return out;
}

TorchTimes time_torch(const dnn::ModelSpec& spec, Fs fs) {
  World world;
  auto& gpu = world.volta().gpu(0);
  auto model = dnn::ModelZoo::create_from_spec(gpu, spec, {.force_phantom = true});
  std::optional<storage::BeeGfsMount> mount;
  storage::CheckpointStorage* storage = world.volta_nvme.get();
  if (fs == Fs::kBeegfs) {
    storage = &mount.emplace(*world.cluster, world.volta(), *world.beegfs_server, "mnt0");
  }
  baselines::TorchSaveCheckpointer ckpt{world.volta(), gpu, *storage};
  TorchTimes out;
  world.run([](baselines::TorchSaveCheckpointer& c, dnn::Model& m, const std::string& p,
               TorchTimes& t) -> sim::Process {
    t.checkpoint = co_await c.checkpoint(m, p);
    t.restore = (co_await c.restore(m, p, /*gpu_direct=*/true)).total;
  }(ckpt, model, "/ckpt/" + spec.name + ".ptck", out));
  if (mount) out.dax = mount->dax_write_time();
  return out;
}

std::vector<GptRank> make_gpt_ranks(World& world, const dnn::ModelSpec& spec,
                                    bool with_portus, bool with_beegfs) {
  dnn::MegatronPartitioner partitioner{/*tensor_parallel=*/8, /*pipeline_parallel=*/2};
  const auto shards = partitioner.partition(spec);

  std::vector<GptRank> ranks;
  ranks.reserve(shards.size());
  for (const auto& shard : shards) {
    // PP stage 0 on client-ampere (8 GPUs), stage 1 on client-volta.
    auto& node = shard.pp_rank == 0 ? world.ampere() : world.volta();
    auto& gpu = node.gpu(static_cast<std::size_t>(shard.tp_rank) % node.gpu_count());

    GptRank rank;
    rank.shard = shard;
    rank.gpu = &gpu;
    rank.node = &node;
    // Shards of the smaller GPT configs fall below the phantom threshold;
    // force phantom payloads — these benches only measure time.
    dnn::ModelZoo::Options opt;
    opt.force_phantom = true;
    rank.model =
        std::make_unique<dnn::Model>(dnn::ModelZoo::create_from_spec(gpu, shard.spec, opt));
    if (with_portus) {
      rank.portus = std::make_unique<core::PortusClient>(*world.cluster, node, gpu,
                                                         world.rendezvous);
    }
    if (with_beegfs) {
      rank.beegfs = std::make_unique<storage::BeeGfsMount>(
          *world.cluster, node, *world.beegfs_server, "mnt-" + shard.spec.name);
    }
    ranks.push_back(std::move(rank));
  }
  return ranks;
}

sim::Process register_all(std::vector<GptRank>& ranks) {
  for (auto& rank : ranks) {
    co_await rank.portus->connect();
    co_await rank.portus->register_model(*rank.model);
  }
}

namespace {

sim::Process checkpoint_one(GptRank& rank, std::uint64_t iteration) {
  co_await rank.portus->checkpoint(*rank.model, iteration);
}

sim::Process restore_one(GptRank& rank) { co_await rank.portus->restore(*rank.model); }

sim::Process torch_save_one(GptRank& rank, std::uint64_t iteration) {
  baselines::TorchSaveCheckpointer ckpt{*rank.node, *rank.gpu, *rank.beegfs};
  co_await ckpt.checkpoint(*rank.model,
                           strf("/gpt/{}.iter{}", rank.shard.spec.name, iteration));
}

template <typename Fn>
sim::SubTask<Duration> fan_out(sim::Engine& engine, std::vector<GptRank>& ranks, Fn&& make) {
  const Time t0 = engine.now();
  std::vector<sim::Process> procs;
  procs.reserve(ranks.size());
  for (auto& rank : ranks) {
    procs.push_back(engine.spawn(make(rank)));
  }
  for (auto& p : procs) co_await p.join();
  co_return engine.now() - t0;
}

}  // namespace

sim::SubTask<Duration> checkpoint_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration) {
  co_return co_await fan_out(engine, ranks,
                             [&](GptRank& r) { return checkpoint_one(r, iteration); });
}

sim::SubTask<Duration> restore_all(sim::Engine& engine, std::vector<GptRank>& ranks) {
  co_return co_await fan_out(engine, ranks, [&](GptRank& r) { return restore_one(r); });
}

sim::SubTask<Duration> torch_save_all(sim::Engine& engine, std::vector<GptRank>& ranks,
                                      std::uint64_t iteration) {
  co_return co_await fan_out(engine, ranks,
                             [&](GptRank& r) { return torch_save_one(r, iteration); });
}

}  // namespace portus::bench
