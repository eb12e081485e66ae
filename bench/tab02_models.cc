// Table II — DNN model specifications. Verifies that the synthetic model
// zoo reproduces the paper's layer counts, parameter counts, and checkpoint
// sizes exactly (these drive every other experiment). Gates: every model's
// instantiated layout matches its spec and the paper's size to the byte, and
// each GPT checkpoint is its parameter count x 4 bytes.
#include "bench_common.h"

using namespace portus;

int main() {
  bench::print_header("Table II: DNN model specifications",
                      "layers / params / size per model, verbatim");
  bench::Report report{"tab02_models"};
  sim::Engine engine;
  mem::AddressSpace as;
  gpu::GpuDevice gpu{engine, as, "gpu0", gpu::GpuKind::kV100};

  auto& models = report.table(
      "models", {{"model", bench::kText}, {"layers"}, {"params_m", bench::kReal, 1},
                 {"size_bytes", bench::kBytes}, {"paper_size_mib"}, {"exact", bench::kFlag}});
  const std::pair<const char*, Bytes> paper[] = {
      {"alexnet", 233},  {"convnext_base", 338}, {"resnet50", 97}, {"swin_b", 335},
      {"vgg19_bn", 548}, {"vit_l_32", 1169},     {"bert", 1282}};
  for (const auto& [name, paper_mib] : paper) {
    const auto& spec = dnn::ModelZoo::spec(name);
    // Instantiate to prove the generated layout matches the spec; no payload
    // is needed for a structural check.
    const auto model = dnn::ModelZoo::create(gpu, name, {.force_phantom = true});
    const bool exact = model.layer_count() == static_cast<std::size_t>(spec.layers) &&
                       model.total_bytes() == spec.checkpoint_bytes &&
                       model.total_bytes() == paper_mib * 1_MiB;
    models.add({spec.name, spec.layers, spec.params_millions, model.total_bytes(), paper_mib,
                exact});
    report.require(exact, std::string{name} + " does not match Table II");
  }

  auto& gpt = report.table("gpt",
                           {{"model", bench::kText}, {"layers"}, {"params_m", bench::kReal, 0},
                            {"size_bytes", bench::kBytes}},
                           "GPT family (SS V-E): checkpoint = params x 4B");
  for (const auto* name : {"gpt-1.5b", "gpt-10b", "gpt-22.4b"}) {
    const auto& spec = dnn::ModelZoo::spec(name);
    gpt.add({spec.name, spec.layers, spec.params_millions, spec.checkpoint_bytes});
    report.require(spec.checkpoint_bytes == static_cast<Bytes>(spec.params_millions * 4e6),
                   std::string{name} + " checkpoint is not params x 4B");
  }
  return report.finish();
}
