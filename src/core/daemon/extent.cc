#include "core/daemon/extent.h"

namespace portus::core {

std::vector<Extent> plan_extents(const std::vector<ChunkSpan>& spans,
                                 const std::vector<IndexedTensor>& tensors,
                                 const ExtentConfig& config,
                                 const std::vector<bool>& dirty) {
  PORTUS_CHECK_ARG(config.max_sges >= 1, "max_sges must be >= 1");
  PORTUS_CHECK_ARG(dirty.empty() || dirty.size() == tensors.size(),
                   "dirty class vector does not match tensor count");
  const bool coalesce = config.coalesce_threshold > 0 && config.max_sges > 1;

  std::vector<Extent> out;
  out.reserve(spans.size());
  Extent run;  // the open dense run of fusable small tensors
  auto flush = [&] {
    if (!run.members.empty()) {
      out.push_back(std::move(run));
      run = Extent{};
    }
  };
  const auto same_class = [&](const ChunkSpan& a, const ChunkSpan& b) {
    return dirty.empty() || dirty[a.tensor] == dirty[b.tensor];
  };

  for (const auto& s : spans) {
    PORTUS_CHECK_ARG(s.tensor < tensors.size(), "chunk span for out-of-range tensor");
    if (s.len == 0) {
      // Standalone empty extent; the open run stays open — a zero-length
      // tensor occupies no bytes, so its neighbors are still dense.
      out.push_back(Extent{.members = {s}, .offset_in_slot = s.offset_in_slot, .len = 0});
      continue;
    }
    const bool fusable = coalesce && s.offset == 0 &&
                         s.len == tensors[s.tensor].size &&
                         s.len <= config.coalesce_threshold;
    if (!fusable) {
      flush();
      out.push_back(Extent{.members = {s}, .offset_in_slot = s.offset_in_slot, .len = s.len});
      continue;
    }
    const bool extends = !run.members.empty() &&
                         run.members.size() < static_cast<std::size_t>(config.max_sges) &&
                         run.len + s.len <= kExtentByteBudget &&
                         s.offset_in_slot == run.offset_in_slot + run.len &&
                         same_class(run.members.front(), s);
    if (!extends) {
      flush();
      run = Extent{.members = {s}, .offset_in_slot = s.offset_in_slot, .len = s.len};
    } else {
      run.members.push_back(s);
      run.len += s.len;
    }
  }
  flush();
  return out;
}

}  // namespace portus::core
