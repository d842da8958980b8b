#include "kernels/hotspot.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/launch_model.hpp"
#include "kernels/models/hotspot_model.hpp"

namespace bat::kernels {

namespace {

enum Pos { kBx, kBy, kTx, kTy, kTf, kUnrollT, kShPower, kBlocksPerSm };

}  // namespace

HotspotBenchmark::HotspotBenchmark()
    : KernelBenchmark("hotspot", make_space()) {}

core::SearchSpace HotspotBenchmark::make_space() {
  // Table III lists 37 values for block_size_x: {1,2,4,8} ∪ {32n} plus 16.
  std::vector<core::Value> bx{1, 2, 4, 8, 16};
  for (core::Value x = 32; x <= 1024; x += 32) bx.push_back(x);

  core::ParamSpace space;
  space.add(core::Parameter::list("block_size_x", bx))
      .add(core::Parameter::list("block_size_y", {1, 2, 4, 8, 16, 32}))
      .add(core::Parameter::range("tile_size_x", 1, 10))
      .add(core::Parameter::range("tile_size_y", 1, 10))
      .add(core::Parameter::range("temporal_tiling_factor", 1, 10))
      .add(core::Parameter::range("loop_unroll_factor_t", 1, 10))
      .add(core::Parameter::list("sh_power", {0, 1}))
      .add(core::Parameter::list("blocks_per_sm", {0, 1, 2, 3, 4}));

  core::ConstraintSet constraints;
  constraints.add("loop_unroll_factor_t divides temporal_tiling_factor",
                  {"temporal_tiling_factor", "loop_unroll_factor_t"},
                  [](const core::Config& c) {
                    return c[kTf] % c[kUnrollT] == 0;
                  });
  return core::SearchSpace(std::move(space), std::move(constraints));
}

HotspotParams HotspotBenchmark::decode(const core::Config& c) {
  return HotspotParams{
      static_cast<int>(c[kBx]),      static_cast<int>(c[kBy]),
      static_cast<int>(c[kTx]),      static_cast<int>(c[kTy]),
      static_cast<int>(c[kTf]),      static_cast<int>(c[kUnrollT]),
      static_cast<int>(c[kShPower]), static_cast<int>(c[kBlocksPerSm])};
}

std::optional<double> HotspotBenchmark::model_time_ms(
    const core::Config& config, const gpusim::DeviceSpec& device) const {
  const auto prof = models::hotspot_profile(decode(config), device);
  if (!prof) return std::nullopt;
  return gpusim::LaunchModel::estimate_ms(device, *prof);
}

}  // namespace bat::kernels
