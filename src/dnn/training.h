// Training-loop simulation (Fig. 8 of the paper): every iteration is a
// forward pass (F), back-propagation (B), and a parameter update (U).
// Weights are *stable* during F and B and mutate only in U — the property
// Portus's asynchronous checkpointing exploits: a checkpoint snapshot taken
// at an iteration boundary stays valid until the next U begins.
//
// Checkpoint policies attach through CheckpointHook:
//   * on_iteration_end(i) fires after U completes (weights quiescent);
//     synchronous policies block here for the full checkpoint.
//   * before_update(i) fires just before U mutates the weights; async
//     policies stall here only if the in-flight snapshot has not finished.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "dnn/model.h"
#include "dnn/model_zoo.h"
#include "gpu/gpu_device.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace portus::dnn {

class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;
  virtual sim::SubTask<> on_iteration_end(std::uint64_t iteration) = 0;
  virtual sim::SubTask<> before_update(std::uint64_t iteration) = 0;
};

// Default: train without checkpointing.
class NoCheckpoint final : public CheckpointHook {
 public:
  sim::SubTask<> on_iteration_end(std::uint64_t) override;
  sim::SubTask<> before_update(std::uint64_t) override;
};

struct TrainingConfig {
  Duration iteration_time{};
  double update_fraction = 0.08;
  double busy_fraction = 0.85;
  // Mutate model weights each update so checkpoint versions differ. Off for
  // phantom/large runs where contents don't matter.
  bool mutate_weights = true;
  // Optional timeline tracing: emits F+B / U / stall spans on `trace_track`.
  sim::Tracer* tracer = nullptr;
  std::string trace_track = "train";

  static TrainingConfig from_spec(const ModelSpec& spec) {
    return TrainingConfig{.iteration_time = spec.iteration_time,
                          .update_fraction = spec.update_fraction,
                          .busy_fraction = spec.busy_fraction};
  }
};

struct TrainingStats {
  std::uint64_t iterations_done = 0;
  Duration checkpoint_stall{0};  // time the loop waited on checkpoint hooks
  Time started{};
  Time finished{};

  Duration wall() const { return finished - started; }
};

// Runs `iterations` training steps of `model` on its GPU. The model pointer
// may be null for pure-timing runs (no weight mutation).
sim::Process train(sim::Engine& engine, gpu::GpuDevice& gpu, Model* model,
                   TrainingConfig config, std::uint64_t iterations, CheckpointHook& hook,
                   TrainingStats& stats);

}  // namespace portus::dnn
